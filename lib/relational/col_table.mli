(** Columnar storage: one typed array per attribute.

    The columnar engine's data layout — integer columns as flat [int]
    arrays, string columns dictionary-encoded against a sorted
    dictionary (code order = string order), NULLs as cleared bits in a
    validity mask. The source relation's row tuples remain reachable,
    so join results materialize as pointers to the original tuples and
    all downstream Value-level machinery is shared with the row
    engine. *)

type col =
  | C_int of { data : int array; valid : Bitset.t option }
      (** Integer column; [valid = None] means no NULLs. A cleared
          validity bit makes the stored 0 meaningless. *)
  | C_str of { codes : int array; dict : string array; valid : Bitset.t option }
      (** Dictionary-encoded string column. [dict] is sorted by
          [String.compare] and duplicate-free, so code comparisons
          order exactly like string comparisons. *)

type t
(** One relation in columnar form. *)

val of_relation : Relation.t -> t
(** Build the columnar image (dictionary sort included). *)

val of_relation_cached : Relation.t -> t
(** {!of_relation} memoized per domain on physical equality of the
    relation — repeated prepares against the same instance reuse one
    image. Bounded and FIFO: a miss enters at the front and evicts the
    oldest entry past the cap, a hit does not move. Every delta of a
    columnar fallback preparation ({!Delta_eval}) adds one entry, the
    image of its perturbed relation. Safe under the moving GC because
    keys are compared with [==], never hashed by address. *)

val relation : t -> Relation.t
(** The source relation. *)

val nrows : t -> int
(** Number of rows. *)

val col : t -> int -> col
(** Column by schema position. *)

val tuple : t -> int -> Relation.tuple
(** [tuple t i] — the source relation's row [i], by pointer. *)

val value : t -> int -> int -> Value.t
(** [value t row col] — one cell decoded back to a {!Value.t}
    ([Null] when the validity bit is clear). *)

val rev_index : t -> int -> (Value.t, int list) Hashtbl.t
(** [rev_index t col] — full-table reverse index: every row id per
    value, [Null]s under {!Value.Null}, buckets in descending row
    order. Built lazily, cached on the table (domain-local, so the
    mutation races with nothing). Valid as a selection-restricted
    index only when the selection covers every row. *)

val lower_bound : string array -> string -> int
(** [lower_bound dict s] — first index holding a string [>= s] (the
    array length when all are smaller). Requires a sorted array. *)

val rank : string array -> string -> int * bool
(** [(lower_bound, exact)] — the dictionary rank of [s] and whether it
    is present. The string-kernel building block. *)
