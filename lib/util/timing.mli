(** Elapsed-time measurement for the runtime tables (Tables 4-6), the
    worker pool and the conflict build. Every reading comes from the
    monotonic clock, differenced in integer nanoseconds, so a step of
    the wall clock cannot corrupt a duration. *)

val now_ns : unit -> int64
(** The monotonic clock, in nanoseconds from an arbitrary origin. *)

val seconds_since : int64 -> float
(** [seconds_since t0] — seconds elapsed since the {!now_ns} reading
    [t0]. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the
    elapsed seconds. *)

val time_runs : ?warmup:int -> runs:int -> (unit -> 'a) -> float
(** [time_runs ~warmup ~runs f] reports the mean elapsed seconds over
    [runs] executions after [warmup] (default 1) discarded executions —
    the measurement protocol of §6.1 ("average over 5 runs, where we
    discard the first run"). *)
