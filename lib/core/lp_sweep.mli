(** The LP sweep shared by {!Lpip} and {!Cip} (§5.2): solve one LP per
    member (a valuation candidate, a capacity), read item weights off
    each optimum, and keep the highest-revenue item pricing.

    Members run in fixed chunks of 8, each chunk warm-starting through
    one fresh family, and the chunks fan out over
    {!Qp_util.Parallel.map}. The chunk boundaries fix the warm chains and
    the chains fix which optimal vertex each member reports, so the
    result is bit-identical at any job count. *)

type report = {
  pricing : Pricing.t;
  solved : int;  (** member LPs that reached an optimum *)
  attempted : int;  (** members attempted (including skipped ones) *)
  failures : (string * int) list;
      (** LP failures by {!Qp_lp.Lp.error_tag}, sorted *)
  degraded : Degrade.marker option;
      (** set iff no member LP solved, at least one failed, and the
          result is the fallback pricing instead of an LP-derived one *)
}
(** Outcome of a sweep with its health attached. *)

val run :
  ?jobs:int ->
  algorithm:string ->
  member_span:string ->
  member_args:('m -> (string * Qp_obs.arg) list) ->
  ?skip:('m -> bool) ->
  family:(unit -> 'm -> (float array, Qp_lp.Lp.error) result) ->
  fallback:string * (Hypergraph.t -> Pricing.t) ->
  all_failed:string ->
  Hypergraph.t ->
  'm array ->
  report
(** [run ~algorithm ~member_span ~member_args ~family ~fallback
    ~all_failed h members] sweeps [members] in order. Each chunk calls
    [family ()] once for a solver that maps a member to its item weights,
    warm-started from the chunk's previous member. A member for which
    [skip] (checked first, default never) holds is counted in [attempted]
    only; any other runs under a [member_span] span with [member_args],
    annotated with its [revenue] or [lp_failure] tag. The best pricing
    starts from the zero pricing and changes only on a strictly higher
    revenue, so ties keep the earliest member.

    Failed members bump the [<algorithm>.lp_failures] counter. When no
    member solves and at least one fails, the result is [snd fallback h]
    with a recorded {!Degrade.marker} ([fst fallback] names it, the
    reason is [all_failed] plus the failure tally). The enclosing span
    closes with [solved], [failed] and the returned pricing's
    [best_revenue], plus [fallback] when degraded. [jobs] is the
    worker-pool size ({!Qp_util.Parallel.default_jobs} when absent). *)
