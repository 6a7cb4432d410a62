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

val of_relation_cached : Relation.t -> t
(** The columnar image (dictionary sort included), memoized per domain on physical equality of the
    relation — repeated prepares against the same instance reuse one
    image. Bounded and FIFO: a miss enters at the front and evicts the
    oldest entry past the cap, a hit does not move. Every delta of a
    columnar fallback preparation ({!Delta_eval}) adds one entry, the
    image of its perturbed relation. Safe under the moving GC because
    keys are compared with [==], never hashed by address. *)

val nrows : t -> int
(** Number of rows. *)

val col : t -> int -> col
(** Column by schema position. *)

val tuple : t -> int -> Relation.tuple
(** [tuple t i] — the source relation's row [i], by pointer. *)

type keys = {
  ids : int array;
      (** Per row, the id of its value: equal values (NULLs included,
          under the equi probes' Null = Null rule) share an id. *)
  ints : int array;
      (** Int column: its sorted distinct non-NULL values, value [i]
          having id [i]. Empty for a string column, whose ids are its
          dictionary codes. *)
  null_id : int;
      (** The id of NULL, one past the last value id; [null_id + 1] is
          the size of the id domain. *)
  start : int array;
      (** Offsets into [rows], one per id and one past the last. *)
  rows : int array;
      (** Reverse index: the rows holding id [k] are
          [rows.(start.(k)) .. rows.(start.(k + 1) - 1)], in
          descending row order. *)
}
(** The key index of one column: dense value ids and their rows. *)

val keys : t -> int -> keys
(** [keys t col] — column [col]'s key index. Built lazily and cached on
    the table (domain-local, so the mutation races with nothing). *)

val key_id : t -> int -> Value.t -> int
(** [key_id t col v] — the id of [v] in column [col]'s key domain, or
    [-1] when no row holds a value equal to [v]. [Null] always maps to
    [null_id]. *)

val translate : t -> int -> t -> int -> Bitset.t -> Bitset.t
(** [translate t col src src_col set] — [set], a set of ids in
    [src]'s column [src_col] key domain, as the ids in [t]'s column
    [col] domain of the same values (values [t] does not hold drop
    out; NULL maps to NULL). One merge of the two sorted domains,
    O(distinct values of both). *)

val rank : string array -> string -> int * bool
(** [(lower_bound, exact)] — the dictionary rank of [s] and whether it
    is present. The string-kernel building block. *)
