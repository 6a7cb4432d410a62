(** Deterministic fault injection for chaos-testing the pricing
    pipeline.

    A {e site} is a named point in a hot path (a simplex pivot, a
    worker-pool task, a conflict-set query, a benchmark cell) that asks
    this registry whether to misbehave. Whether a site fires is a pure
    function of the armed spec's seed, the site name, a caller-supplied
    deterministic {e key} (pivot count, task index, ...) and the
    caller's {e attempt} number — never of global counters or time — so
    a fault schedule is bit-identical at any [QP_JOBS] and replays
    exactly across runs, while a retry ([attempt + 1]) re-draws rather
    than hitting the same fault forever.

    Specs come from the [QP_FAULTS] environment variable (parsed at load
    time; a malformed spec aborts the process) or from [--inject] flags
    via {!configure}. Grammar, site taxonomy and the degradation matrix
    are documented in [docs/ROBUSTNESS.md].

    While no spec is armed every check is a single atomic load — the
    same zero-cost-when-disabled contract as {!Qp_obs}. *)

(** What the firing site should do: raise ({!Injected}), corrupt a
    numeric result ([Nan]), or burn its budget ([Stall]). Sites that
    cannot express [Nan]/[Stall] treat them as [Fail]. *)
type kind = Fail | Nan | Stall

exception Injected of string
(** Raised by {!maybe_fail} (and by sites handling {!Fail} themselves);
    the payload is the site name. *)

type spec = {
  site : string;
      (** a site of the taxonomy (a bad spec's parse error lists
          them) *)
  kind : kind;
  p : float;  (** firing probability per eligible check (default 1) *)
  nth : int option;
      (** when set, only keys divisible by [nth] are eligible *)
  seed : int;  (** fault-schedule seed (default 0) *)
}

val describe : spec -> string
(** Canonical [SITE:kind:p=..[:nth=..]:seed=..] rendering. *)

val parse : string -> (spec list, string) result
(** Parse a comma-separated spec list
    ([SITE:KIND[:p=F][:nth=N][:seed=N], ...]). *)

val configure : string -> (unit, string) result
(** Parse and append to the armed registry (the [--inject] flag). *)

val install : spec list -> unit
(** Replace the registry wholesale and reset the injection counters
    ([[]] disarms). Tests drive the registry through this. *)

val clear : unit -> unit
(** [install []]. *)

val enabled : unit -> bool
(** Whether any spec is armed — one atomic load; hot sites gate on this
    before building keys. *)

val specs : unit -> spec list
(** The armed specs, in match order (first match wins). *)

val check : ?attempt:int -> key:int -> string -> kind option
(** [check ~key site] — should this site fire, and how? [None] when
    disarmed or when no spec matches. A firing check is recorded in
    {!injections} and surfaced through {!Qp_obs} (a
    ["fault.injected.<site>"] counter and a ["fault.injected"] event).
    [attempt] defaults to 0; retry layers pass their attempt number so
    probabilistic faults re-draw. *)

val maybe_fail : ?attempt:int -> key:int -> string -> unit
(** [check], raising {!Injected} on any firing kind — for sites whose
    only failure mode is an exception. *)

val injections : unit -> (string * int) list
(** Faults actually fired since the last {!install}, per site, sorted —
    independent of {!Qp_obs} so bench metadata can report them with
    tracing off. *)

val site_key : string -> int
(** Stable non-negative hash (FNV-1a) for deriving a deterministic key
    from a string identity, e.g. a cell's instance/model labels. *)
