(** Deterministic, splittable pseudo-random number generation.

    Every stochastic component of the reproduction (data generators,
    support sampling, valuation models) draws from an [Rng.t] so that a
    single integer seed determines the whole experiment. [split] derives
    an independent stream from a parent stream and a string label, which
    keeps experiments stable when unrelated components add or remove
    draws. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> string -> t
(** [split t label] derives an independent generator. The result depends
    only on [t]'s seed lineage and [label], not on how many values have
    been drawn from [t]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool
(** A fair coin flip. *)

val pick : t -> 'a array -> 'a
(** [pick t arr] draws a uniform element. Requires a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** {!pick} over a list. Requires a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct integers from
    [0, n). Requires [k <= n]. The result is sorted. *)
