(** Uniform item pricing (§5.2, Guruswami et al.): all items get the
    same weight [w], so a bundle of size [s] costs [w * s]. The optimal
    [w] is one of [q_e = v_e / |e|]; a sweep over the edges sorted by
    [q_e] finds it in O(m log m). Worst-case guarantee:
    O(log n + log m). *)

val optimal_weight : Hypergraph.t -> float * float
(** [(weight, revenue)]. Edges with empty conflict sets always sell at
    price 0 and contribute nothing, so they are not candidates.
    [revenue] is {!Pricing.revenue} of {!solve}'s pricing, bit for
    bit; the sweep's own weight × size score only picks the weight. *)

val solve : Hypergraph.t -> Pricing.t
(** [Item] pricing with every weight at {!optimal_weight}. Recorded as
    a [uip.solve] span when {!Qp_obs} tracing is enabled. *)
