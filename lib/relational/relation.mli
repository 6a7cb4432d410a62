(** A relation instance: a schema plus an immutable array of tuples.

    Tuples are value arrays positionally aligned with the schema. The
    array itself must not be mutated after construction — support-set
    deltas are applied functionally (see {!Delta}). *)

type tuple = Value.t array

type t

val make : Schema.t -> tuple list -> t
(** Checks every tuple's arity and that values respect declared types
    ([Null] is allowed everywhere; [Ratio] only arises from query
    evaluation and is rejected in stored data). *)

val schema : t -> Schema.t
(** The relation's schema. *)

val cardinality : t -> int
(** Number of tuples. *)

val tuple : t -> int -> tuple
(** [tuple r i] — row [i] ([0 <= i < cardinality r]). *)

val tuples : t -> tuple array
(** The backing array; callers must not mutate it. *)

val get : t -> int -> string -> Value.t
(** [get r row attr] is the value of [attr] in row [row]. *)

val replace_tuple : t -> int -> tuple -> t
(** Functional single-tuple substitution (copies the tuple array). *)

val drop_tuple : t -> int -> t
(** Functional single-tuple removal. *)
