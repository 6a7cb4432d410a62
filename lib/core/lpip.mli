(** LP item pricing (§5.2): for each candidate edge [e], solve a linear
    program that must sell every edge at least as valuable as [e]
    ([F_e = {e' : v_e' >= v_e}]) while maximizing their total price, then
    keep the candidate whose resulting item pricing earns the most over
    the whole instance. Worst-case guarantee O(log m); empirically the
    strongest algorithm in the paper.

    Two optimizations over the naive O(m) LPs, both revenue-preserving:
    candidates are deduplicated by valuation (equal valuations induce
    the same [F_e]), and each LP runs over item membership classes
    ({!Class_lp}). [max_candidates] further subsamples the candidate
    list evenly (by descending valuation) to bound running time, at the
    cost of the paper's exact sweep. *)

type options = {
  max_candidates : int option;
  max_pivots : int;
  jobs : int option;
      (** worker-pool size for the candidate sweep; [None] defers to
          {!Qp_util.Parallel.default_jobs} ([QP_JOBS]). Output is
          bit-identical at any job count. *)
}

val default_options : options
(** No candidate cap, 200k pivots per LP, pool size from [QP_JOBS]. *)

type report = Lp_sweep.report = {
  pricing : Pricing.t;
  solved : int;
  attempted : int;
  failures : (string * int) list;
  degraded : Degrade.marker option;
}
(** The candidate sweep's {!Lp_sweep.report}; its members are the
    candidate LPs. *)

val solve : ?options:options -> Hypergraph.t -> Pricing.t
(** Best item pricing over the candidate sweep; each candidate is
    recorded as an [lpip.candidate] span under an [lpip.solve] span
    when {!Qp_obs} tracing is enabled. *)

val solve_report : ?options:options -> Hypergraph.t -> report
(** Like {!solve}, returning the full sweep health ({!Lp_sweep.run}):
    when every candidate LP fails the pricing degrades to {!Uip.solve};
    failures bump the ["lpip.lp_failures"] counter. *)
