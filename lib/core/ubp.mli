(** Uniform bundle pricing (§5.1): every bundle sells at the same price
    [P]. The optimal [P] is one of the valuations; a sorted sweep finds
    it in O(m log m). Worst-case guarantee: O(log m) of the sum of
    valuations (Lemma 1), and this is tight (Lemma 2). *)

val optimal_price : Hypergraph.t -> float * float
(** [(price, revenue)] of the optimal uniform bundle price (price 0 and
    revenue 0 on the empty instance). [revenue] is {!Pricing.revenue}
    of the [Uniform_bundle price] pricing, bit for bit; the sweep's
    own price × buyers score only picks the price. *)

val solve : Hypergraph.t -> Pricing.t
(** [Uniform_bundle] pricing at {!optimal_price}. Recorded as a
    [ubp.solve] span when {!Qp_obs} tracing is enabled. *)
