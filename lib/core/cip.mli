(** Capacity item pricing (§5.2, after Cheung & Swamy): for each
    capacity [k] on a (1+ε) grid up to the maximum degree [B], solve the
    welfare-maximization LP

    maximize    sum_e v_e x_e
    subject to  sum_{e : j in e} x_e <= k   for every item j
                0 <= x_e <= 1

    and read item prices off the optimal duals of the capacity
    constraints. The best revenue over the grid is an O((1+ε) log B)
    approximation. Item constraints are collapsed to membership classes,
    which is exact (identical rows). *)

type options = {
  epsilon : float;
  max_pivots : int;
  time_budget : float option;
      (** elapsed seconds across the whole grid, read from the
          monotonic clock so that a wall-clock step can neither skip
          capacities nor extend the budget; once exceeded the remaining
          capacities are skipped — the paper applies exactly this
          mitigation ("we fix ε = 3 to limit the running time", §6.4) *)
  jobs : int option;
      (** worker-pool size for the capacity sweep; [None] defers to
          {!Qp_util.Parallel.default_jobs} ([QP_JOBS]). Without a time
          budget the output is bit-identical at any job count. *)
}

val default_options : options
(** ε = 0.25, 200k pivots per LP, no time budget, pool size from
    [QP_JOBS]. *)

val capacity_grid : epsilon:float -> max_degree:int -> float list
(** [1, (1+ε), (1+ε)^2, ..., B] (deduplicated, always ends at [B]). *)

type report = Lp_sweep.report = {
  pricing : Pricing.t;
  solved : int;
  attempted : int;
  failures : (string * int) list;
  degraded : Degrade.marker option;
}
(** The capacity sweep's {!Lp_sweep.report}; its members are the grid
    points, and [attempted] counts skipped ones. *)

val solve : ?options:options -> Hypergraph.t -> Pricing.t
(** Best item pricing over the capacity grid; each grid point is
    recorded as a [cip.capacity] span (or a [cip.capacity_skipped]
    event once over budget) under a [cip.solve] span when {!Qp_obs}
    tracing is enabled. *)

val solve_report : ?options:options -> Hypergraph.t -> report
(** Like {!solve}, returning the full sweep health ({!Lp_sweep.run}):
    when every attempted welfare LP fails the pricing degrades to
    {!Ubp.solve}; failures bump the ["cip.lp_failures"] counter. An
    all-skipped grid (time budget exhausted up front) is not a
    degradation. *)
