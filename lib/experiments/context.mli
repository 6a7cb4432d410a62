(** Shared state for a bench/CLI session: the profile, the seed, and a
    cache of built workload instances (building SSB takes seconds —
    every experiment that needs it should reuse one build). *)

type t

val create : ?profile:Runner.profile -> ?seed:int -> unit -> t
(** Profile defaults to [Quick] (what [qpricing] uses without
    [--profile full], and what every benchmark runs); seed to 42. *)

val profile : t -> Runner.profile
(** The session's benchmark profile, fixed at {!create}. *)

val seed : t -> int
(** The session's base random seed; experiments derive per-run seeds
    from it so a session is reproducible end to end. *)

val instance : t -> string -> Workload_instances.t
(** Cached lookup by workload key ("skewed", "uniform", "tpch", "ssb").
    Raises [Not_found] for unknown keys. *)
