(** Shared experiment machinery: algorithm options per profile,
    measurement of revenue (normalized as in the paper's plots) and
    runtime, and averaging over runs with the paper's protocol (§6.1:
    average of 5 runs, first run discarded — profile-dependent here). *)

type profile = Quick | Full
(** [Quick] is the default of every session and every benchmark;
    [Full] (closer-to-paper settings, slower) is chosen with
    [qpricing --profile full]. *)

val runs : profile -> int
(** Valuation draws averaged per cell: 1 for [Quick], 5 (the paper's
    protocol) for [Full]. *)

val lpip_options : profile -> Qp_core.Lpip.options
(** LPIP options per profile: [Quick] caps the candidate sweep, [Full]
    runs the paper's exact sweep. *)

val cip_options : profile -> Qp_core.Cip.options
(** CIP options per profile: [Quick] uses a coarse ε and a time
    budget, [Full] the paper's ε = 0.25. *)

val algorithms : profile -> Qp_core.Algorithms.spec list
(** {!Qp_core.Algorithms.all} specialized to the profile's LPIP/CIP
    options. *)

type measurement = {
  algorithm : string;
  revenue : float;
  normalized : float;  (** revenue / sum of valuations *)
  seconds : float;
  degraded : string option;
      (** set when the algorithm degraded to a fallback pricing in at
          least one run — {!Qp_core.Degrade.describe} of the first
          marker, suffixed with the affected run count when partial *)
}

type cell = {
  instance : string;
  model : string;
  sum_valuations : float;
  subadditive : float;  (** normalized subadditive upper bound *)
  measurements : measurement list;
  build : Qp_market.Conflict.stats;
      (** instrumentation of the instance's conflict-set construction,
          carried along so reports can show build cost next to solve
          cost *)
}

type cell_failure = {
  failed_instance : string;
  failed_model : string;
  attempts : int;  (** total attempts made (2: initial + one retry) *)
  error : string;  (** the final attempt's exception *)
}
(** A cell that raised on both attempts, recorded so sweeps can continue
    with partial results instead of aborting. *)

val run_cell :
  ?attempt:int ->
  ?jobs:int ->
  ?n_runs:int ->
  profile:profile ->
  seed:int ->
  Qp_workloads.Valuations.model ->
  Workload_instances.t ->
  cell
(** Draw valuations (averaging measurements over [runs profile]
    independent draws, or [n_runs] when given), run every algorithm, and
    collect one plot cell. Runs execute on the {!Qp_util.Parallel}
    worker pool ([jobs] overrides [QP_JOBS]); each run's valuation draw
    is keyed by the run index, so the cell is bit-identical at any job
    count.

    The cell consults the ["runner.cell"] fault site on entry (key =
    {!Qp_fault.site_key} of ["<instance>/<model>"], so the schedule is
    independent of sweep order); [attempt] (default 0) is the retry
    layer's attempt number, passed through to the fault draw. *)

val run_cell_result :
  ?jobs:int ->
  ?n_runs:int ->
  ?retry_backoff:float ->
  profile:profile ->
  seed:int ->
  Qp_workloads.Valuations.model ->
  Workload_instances.t ->
  (cell, cell_failure) result
(** {!run_cell} with containment: an exception (injected fault, worker
    crash) is retried once after [retry_backoff] seconds (default 0.05,
    attempt 1 — deterministic faults re-draw); a second failure becomes
    a structured [Error]. Retries bump ["runner.cell_retries"] (and a
    ["runner.cell_retry"] event), permanent failures
    ["runner.cell_failures"] (and a ["runner.cell_failed"] event). *)

val run_cells :
  ?jobs:int ->
  ?n_runs:int ->
  profile:profile ->
  seed:int ->
  Qp_workloads.Valuations.model list ->
  Workload_instances.t ->
  cell list * cell_failure list
(** One {!run_cell_result} per model, fanned out on the worker pool;
    surviving cells in model order plus the failures, so a panel renders
    partial results with an explicit dropped-cell list. *)

val pp_cell_failure : cell_failure -> string
(** One-line ["! dropped <instance> / <model> after N attempts: ..."]
    rendering. *)

val cell_table :
  ?failures:cell_failure list -> header_label:string -> cell list -> string
(** Render cells as an aligned text table, one row per parameter value,
    one column per algorithm — the textual analogue of the paper's bar
    groups. Degraded measurements and dropped cells (when any) are
    appended as ["!"]-prefixed lines after the table; healthy sweeps
    render byte-identically to the plain table. *)
