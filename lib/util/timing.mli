(** The one clock. Every duration the system reports — the runtime
    tables (Tables 4-6), the worker pool's busy time, the conflict
    build, the CIP time budget, the serving histograms and uptime, the
    CLI and bench timers — is read here, from the monotonic clock,
    differenced in integer nanoseconds, so a step of the wall clock
    cannot corrupt a duration. {!Qp_obs}, which sits below this library,
    reads the same clock for its trace timestamps and span histograms. *)

val now_ns : unit -> int64
(** The monotonic clock, in nanoseconds from an arbitrary origin. *)

val seconds_since : int64 -> float
(** [seconds_since t0] — seconds elapsed since the {!now_ns} reading
    [t0]. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the
    elapsed seconds. *)
