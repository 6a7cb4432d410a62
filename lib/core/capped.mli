(** Capped uniform item pricing: [p(e) = min(w * |e|, cap)].

    An extension beyond the paper's three succinct families (§3.4): the
    lower envelope of a uniform item pricing and a uniform bundle
    pricing. It keeps both parents' single-parameter simplicity (two
    numbers describe the whole function) while serving both buyer
    populations the parents each lose — the cap stops big bundles from
    being priced out of the market, the linear part still
    differentiates small bundles. Minima of monotone subadditive
    functions are monotone subadditive, so arbitrage-freeness is
    preserved.

    The solver sweeps candidate slopes (the per-size value densities
    [v_e / |e|], as in UIP) against a quantile grid of caps; each pair
    is evaluated exactly. By construction its revenue is at least that
    of the best pure uniform item pricing (cap = ∞ is in the grid).

    The edges are sorted once by size and once by valuation before the
    sweep; each slope filters those two orders in O(m) and prices every
    cap with two binary searches, so a sweep over S slopes and C caps
    costs O(m log m + S (m + C log m)). *)

val solve : ?cap_candidates:int -> ?jobs:int -> Hypergraph.t -> Pricing.t
(** [cap_candidates] bounds the cap grid (default 32); [jobs] sizes the
    worker pool for the slope sweep (default [QP_JOBS], see
    {!Qp_util.Parallel}). *)

val optimal :
  ?cap_candidates:int -> ?jobs:int -> Hypergraph.t -> (float * float) * float
(** [((weight, cap), revenue)] of the best pair found. Bit-identical at
    any job count. *)
