(** Revenue upper bounds used to normalize the experiment plots (§6.1).

    Two bounds are reported, exactly as in the paper:
    - the sum of all valuations, a trivially sound but loose bound;
    - a "subadditive bound": the optimum of an LP with one revenue
      variable per buyer, capped by the valuation and by cover
      constraints generated greedily (a bundle cannot earn more than the
      revenue of a set of bundles that covers it). The paper's §6.3
      itself observes this bound is not always tight — it is a pruned
      relaxation (covers involving unsold bundles are not valid
      subadditivity certificates), and we inherit that caveat
      deliberately to reproduce the reported normalization. *)

val sum_valuations : Hypergraph.t -> float
(** The trivial bound: no pricing can collect more than every buyer
    paying their full valuation. Alias of
    {!Hypergraph.sum_valuations}, exposed here as the plots' default
    normalizer. *)

val subadditive_bound :
  ?max_covers:int -> ?max_pivots:int -> Hypergraph.t -> float
(** [max_covers] caps the number of generated cover constraints
    (default: one per edge, processed by descending valuation). The
    result is clamped to [sum_valuations] from above and to the best of
    the trivial bounds from below. If the bound LP fails, the bound
    widens to {!sum_valuations} (still sound, just loose) and a
    ["bounds.degraded"] counter/event fires through {!Qp_obs}. *)
