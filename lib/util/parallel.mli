(** Deterministic parallel map over OCaml 5 domains.

    A fixed-size worker pool executes chunked index ranges of an array;
    results are merged in index order, so the output (including every
    floating-point accumulation an index-ordered merge performs) is
    bit-identical to the sequential run regardless of how the scheduler
    interleaves workers. All of the embarrassingly parallel sweeps in
    this repository — one LP per LPIP candidate, one welfare LP per CIP
    capacity, one draw per experiment run — go through this module.

    Pool sizing: [jobs] arguments override everything; otherwise the
    [QP_JOBS] environment variable; otherwise
    [Domain.recommended_domain_count () - 1] (never below 1). With one
    job the sequential code path runs — no domain is spawned.

    Nested calls from inside a worker run sequentially, so composing
    parallel layers (a parallel experiment cell whose algorithms are
    themselves parallel) cannot oversubscribe the machine.

    Failure containment: a raising task never kills or deadlocks the
    pool. Every task runs to completion regardless of other tasks'
    failures; {!map_result} exposes the contained per-task errors, while
    {!map} re-raises the lowest-index failure after the pool
    drains — deterministic at any job count either way.

    When {!Qp_obs} tracing is enabled, each task runs under
    {!Qp_obs.capture} and the captured event buffers are spliced back
    into the caller's trace in index order after the pool drains — the
    trace structure is bit-identical at any job count, by the same merge
    discipline as the results. A failing task's partial buffer is
    dropped (on the sequential path too, keeping traces identical across
    job counts).

    Fault injection: each task consults the ["parallel.task"] site of
    {!Qp_fault} (key = task index) before running, on both the
    sequential and the pooled path. *)

val default_jobs : unit -> int
(** [QP_JOBS] when set to a positive integer, else
    [Domain.recommended_domain_count () - 1], at least 1. Read on every
    call, so [putenv] takes effect immediately. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f xs] is [Array.map f xs] computed by the worker pool.
    Ordering is preserved. If any application of [f] raises, the
    lowest-index exception is re-raised in the caller (with its
    original backtrace) after all tasks have run. *)

type pool_stats = {
  jobs : int;  (** workers actually used (1 on the sequential path) *)
  busy : float array;
      (** [busy.(w)] — seconds (monotonic clock) worker [w] spent executing
          tasks; worker 0 is the calling domain. Length [jobs]. *)
}

type task_error = {
  index : int;  (** which input element's task raised *)
  message : string;  (** [Printexc.to_string] of the exception *)
}
(** A contained task failure, as surfaced by {!map_result}. *)

val map_result :
  ?jobs:int -> ('a -> 'b) -> 'a array -> ('b, task_error) result array
(** Containment interface: each task's exception is caught and returned
    as [Error] in that task's slot, the pool stays alive, and every
    other task still runs. The [Ok]/[Error] pattern is bit-identical at
    any job count. Each failure emits a ["parallel.task_failed"] event
    and the batch bumps ["parallel.task_failures"] by the failure
    count. *)

val map_result_stats :
  ?jobs:int ->
  ('a -> 'b) ->
  'a array ->
  ('b, task_error) result array * pool_stats
(** {!map_result} plus per-worker utilization, for instrumentation of
    the fan-out (conflict-set construction reports these). Stats never
    affect the results. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [List.map f l] via {!map}. *)

val map_reduce :
  ?jobs:int ->
  map:('a -> 'b) ->
  merge:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a array ->
  'acc
(** [map_reduce ~map ~merge ~init xs] computes [map] in parallel, then
    folds the results with [merge] sequentially in index order — the
    merge sees results exactly as the sequential
    [Array.fold_left (fun acc x -> merge acc (map x)) init xs] would. *)
