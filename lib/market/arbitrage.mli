(** Arbitrage-freeness verification (§3.1, Theorem 1).

    All pricing families in {!Qp_core.Pricing} are monotone and
    subadditive by construction, hence arbitrage-free; this module
    {e checks} that, both for the test suite and as a safety net a
    broker can run before publishing a pricing. Checks are witnesses
    over concrete bundles: exhaustive over an instance's edges plus
    randomized sampling over arbitrary bundles. *)

type violation =
  | Not_monotone of { small : int array; large : int array }
      (** [small ⊆ large] but priced strictly higher *)
  | Not_subadditive of { parts : int array list; whole : int array }
      (** the union priced strictly above the sum of its parts *)

val union : int array -> int array -> int array
(** Sorted, duplicate-free union of two item bundles. *)

val pp_violation : Format.formatter -> violation -> unit
(** Human-readable rendering of a violation witness. *)

val check_edges : Qp_core.Pricing.t -> Qp_core.Hypergraph.t -> violation option
(** Exhaustive pairwise check over the instance's hyperedges:
    monotonicity for every contained pair and subadditivity for every
    pair against its union. O(m^2) with small constants. *)

val check_random :
  rng:Qp_util.Rng.t ->
  n_items:int ->
  trials:int ->
  Qp_core.Pricing.t ->
  violation option
(** Randomized check over arbitrary bundles of the ground set. *)
