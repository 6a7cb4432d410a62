(** Packed bit vectors (selection masks for the columnar engine).

    A mask over the rows of one relation: the predicate kernels in
    {!Col_eval} produce one mask per conjunct and combine them with
    whole-word boolean operations. Bits past the logical length are
    kept zero, so word-wise combination is closed over well-formed
    masks. *)

type t

val create : int -> t
(** [create len] — all bits clear. *)

val full : int -> t
(** [full len] — all [len] bits set. *)

val init : int -> (int -> bool) -> t
(** [init len f] — bit [i] holds [f i]; [f] is applied in index order,
    accumulated word-at-a-time (the vectorized-kernel building block). *)

val gather : t -> int array -> t
(** [gather t ids] — bit [r] holds bit [ids.(r)] of [t]: a row mask
    from a set of ids and each row's id, built a word at a time with
    no call per bit. *)

val length : t -> int
(** Logical number of bits. *)

val get : t -> int -> bool
(** [get t i] — bit [i]. *)

val set : t -> int -> unit
(** Set bit [i]. *)

val clear : t -> int -> unit
(** Clear bit [i]. *)

val inter_into : t -> t -> unit
(** [inter_into dst src] — [dst <- dst AND src]. Lengths must match. *)

val union_into : t -> t -> unit
(** [union_into dst src] — [dst <- dst OR src]. Lengths must match. *)

val complement_into : t -> unit
(** Flip every bit in place (within the logical length — tail bits stay
    zero). Implements SQL [NOT] over a predicate mask: rows where the
    inner predicate was false {e or null} become set, matching the
    row engine's two-valued semantics. *)

val scatter : t -> int array -> int -> t
(** [scatter t ids len] — the set, of length [len], of [ids.(r)] over
    the set bits [r] of [t]: the dual of {!gather}, at {!iter}'s cost
    with no call per bit. *)

val count : t -> int
(** Number of set bits: one popcount per word, O(words). *)

val iter : (int -> unit) -> t -> unit
(** Apply to each set bit in increasing order. Costs O(words + set
    bits): zero words are skipped, and each set bit is found in constant
    time (isolate the lowest bit, index it by a popcount) rather than by
    scanning up from bit 0. Each word is read once, before its bits are
    visited, so [f] may clear bits of [t] it has been given. *)

val to_array : t -> int array
(** Set bits in increasing order (the selection vector): {!count}
    sizes the array, one {!iter} fills it, O(words + set bits). *)
