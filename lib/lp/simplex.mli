(** Two-phase primal simplex on a revised engine.

    Solves {b maximize} [c . x] subject to [A x <= b], [x >= 0], where
    [b] may have negative entries (phase 1 introduces artificial
    variables for the infeasible slack rows). This is the raw engine;
    {!Lp} offers a friendlier incremental problem builder.

    The engine is a {e revised} simplex: it takes the constraint rows
    sparse ({!Sparse.col}; no dense row is built or kept), transposes
    them into sparse columns in O(nnz), and keeps the basis inverse as
    an eta file ({!Basis}): a sparse LU written at each reinversion,
    then one product-form eta per pivot. Per-pivot cost tracks the
    nonzero structure rather than a dense [O(rows * cols)] elimination.
    Pivoting uses Dantzig pricing with an anti-cycling switch to Bland's
    rule once the iteration stalls, under scale-relative {!Tolerance}
    thresholds. The dense tableau it replaced lives on as a test-only
    reference oracle, attached through {!with_oracle}.

    There is one way into the engine: a {!family} of LPs over a shared
    matrix, solved member by member with {!resolve}. A one-shot
    {!solve} is the first resolve of a fresh family, so every LP takes
    the same cold/warm path and reports the same instrumentation.

    The solver never raises on solver-side failure: exceeding the pivot
    budget or detecting non-finite arithmetic is reported as a typed
    outcome carrying {!diagnostics}, so callers can distinguish "the
    instance is infeasible" from "the solver gave up". *)

type diagnostics = {
  pivots : int;  (** total pivots performed (both phases) *)
  phase1_pivots : int;  (** pivots spent finding a feasible basis *)
  degenerate_pivots : int;  (** pivots whose leaving row had a ~0 rhs *)
  bland_engaged : bool;  (** whether the anti-cycling rule ever engaged *)
  detail : string;  (** human-readable cause, e.g. the budget hit *)
}
(** Where the solver was when it gave up — attached to
    {!Budget_exhausted} and {!Numerical_error} so degradation layers can
    log {e why} an LP failed, not just that it did. *)

type outcome =
  | Optimal of solution
  | Unbounded
  | Infeasible
  | Budget_exhausted of diagnostics
      (** the pivot budget ([max_pivots]) ran out before convergence *)
  | Numerical_error of diagnostics
      (** a NaN/Inf appeared in the objective or the reported solution *)

and solution = {
  objective : float;
  primal : float array;  (** one value per structural variable *)
  dual : float array;
      (** one value per constraint: the optimal dual multipliers
          (shadow prices); non-negative for binding [<=] rows *)
}

val solve :
  ?max_pivots:int ->
  ?stall_threshold:int ->
  ?refactor_every:int ->
  c:float array ->
  rows:(Sparse.col * float) array ->
  unit ->
  outcome
(** [solve ~c ~rows ()] maximizes [c . x] over [{x >= 0 | a_i . x <= b_i}]
    for [(a_i, b_i)] in [rows]. Each [a_i] is a sparse row: its [idx]
    are variable indices, strictly increasing and below [Array.length c],
    and its [v] holds no [0.0] (as {!Sparse.of_dense} builds it).
    [max_pivots] (default [50_000]) bounds the total pivot count;
    exceeding it yields [Budget_exhausted] (never an exception).

    [stall_threshold] (default [1024]) is the number of {e consecutive}
    degenerate pivots tolerated before Bland's anti-cycling rule takes
    over for the remainder of the phase (a cycle consists solely of
    degenerate pivots, so any cycle trips this quickly); an absolute
    per-phase pivot count is kept as a legacy backstop. Passing
    [max_int] disables the fallback entirely, exposing the raw Dantzig
    rule — useful only for demonstrating cycling in tests.

    [refactor_every] (default [40]) caps how many product-form etas
    accumulate before the basis is reinverted from scratch as a sparse
    LU ({!Basis.factor}). Small values stress-test reinversion; the
    default balances eta-file fill against rebuild cost.

    All numeric thresholds are scale-relative ({!Tolerance.make}): they
    grow with the magnitudes of [c], [A] and [b], so feasible but
    badly-scaled instances (rhs around [1e10]) are not misclassified as
    [Infeasible] by an absolute phase-1 residual check.

    [solve] is the first resolve of a fresh family:
    [resolve (prepare ?max_pivots ?stall_threshold ?refactor_every ~c
    ~rows ())], with the same outcomes, instrumentation and oracle call
    as {!resolve}.

    Fault injection: each pivot iteration consults the
    ["simplex.pivot"] site of {!Qp_fault} (key = current pivot count);
    [fail] raises {!Qp_fault.Injected}, [nan] yields [Numerical_error],
    [stall] yields [Budget_exhausted]. *)

(** {1 Warm-started families}

    Sweeps (CIP's capacity grid, LPIP's candidate prefixes, the
    must-sell families) solve long sequences of LPs over {e one shared
    constraint matrix}, with only the objective and/or rhs moving
    between steps. A {!family} keeps the sparse rows, transposes them
    into sparse columns once and carries the optimal basis from member
    [k] into member [k+1]:

    - objective change only: the saved basis stays primal feasible, so
      a primal phase-2 run restores optimality — no phase 1;
    - rhs change only: the saved basis stays {e dual} feasible, so a
      dual-simplex phase repairs primal feasibility — no phase 1;
    - both: primal phase 2 against the old rhs first, then the dual
      phase, then a roundoff-cleanup phase-2 sweep.

    Warm solving is a pure optimization: any warm-path failure (budget,
    numerics, a basic artificial drifting off zero) silently falls back
    to a cold solve, so {!resolve} reaches exactly the outcomes a
    one-shot {!solve} of the same member would. *)

type family
(** A mutable handle over one shared-matrix LP family: current
    objective/rhs, the factored columns, and (when the previous resolve
    ended [Optimal]) the saved basis. Not
    thread-safe; use one family per worker. *)

val prepare :
  ?max_pivots:int ->
  ?stall_threshold:int ->
  ?refactor_every:int ->
  c:float array ->
  rows:(Sparse.col * float) array ->
  unit ->
  family
(** [prepare ~c ~rows ()] captures the family's shared matrix, the
    sparse rows of {!solve}, with its first member's objective [c] and
    rhs (the [b_i] of [rows]). No solving happens yet; the optional
    knobs mean the same as in {!solve} and apply to every subsequent
    {!resolve}. The family keeps the rows themselves — callers must not
    mutate them — and transposes them into columns at its first cold
    resolve. *)

val resolve : ?c:float array -> ?rhs:float array -> family -> outcome
(** [resolve ?c ?rhs fam] solves the family member obtained by
    replacing the current objective and/or rhs, then remembers the
    optimal basis for the next call. The first resolve (and any resolve
    after a non-[Optimal] outcome) runs cold; later ones warm-start as
    described above; a warm start reaches the same typed outcomes as
    the cold path, under the same tolerances and fault-injection site.

    When {!Qp_obs} tracing is enabled, every call — cold or warm, from a
    sweep or from a one-shot {!solve} — records a ["simplex.solve"]
    span with [rows], [vars] and [warm_seed] on open and, on close,
    [pivots], [phase1_pivots] / [phase2_pivots], [degenerate_pivots],
    [bland_engaged], [etas] (eta-file length), [refactorizations],
    [dual_pivots], [warm_hit] and the [outcome] tag. It bumps the
    ["simplex.solves"] and ["simplex.pivots"] counters, one of
    ["simplex.warm_hit"] / ["simplex.warm_miss"], and on failure
    ["simplex.budget_exhausted"] / ["simplex.numerical_error"]; it
    raises the ["simplex.max_rows"] / ["simplex.max_cols"] size gauges
    and the eta-file gauges ["simplex.max_eta_len"] /
    ["simplex.max_eta_fill"]. A warm hit adds its savings against the
    family's last cold solve to the ["simplex.warm_pivots_saved"]
    counter and ["simplex.warm_pivots_saved_max"] gauge; when the dual
    phase runs it records a nested ["simplex.dual_phase"] span. Each
    reinversion bumps ["simplex.refactorizations"], and Bland's rule
    engaging bumps ["simplex.bland_engaged"]. Warm-path failures emit a
    ["simplex.warm_fallback"] event and re-solve cold; the pivots the
    abandoned attempt spent go to the ["simplex.warm_wasted_pivots"]
    counter (["simplex.pivots"] counts only the cold re-solve).

    A warm attempt may spend at most twice the pivots of the family's
    last cold solve (at least 64, never more than [max_pivots]); one
    that reaches this cap is abandoned and the member re-solved cold,
    since a warm chain that long costs more than starting over. The
    cap reads only the family's own history, so results do not depend
    on how sweeps are spread over workers. *)

val warm_starts : unit -> bool
(** Whether {!resolve} may reuse saved bases (default [true]). *)

val set_warm_starts : bool -> unit
(** [set_warm_starts false] makes every {!resolve} run the cold path —
    the baseline [bench warmstart] measures its pivot savings against. *)

(** {1 Oracle seam} *)

val with_oracle :
  (c:float array -> rows:(Sparse.col * float) array -> outcome -> unit) ->
  (unit -> 'a) ->
  'a
(** [with_oracle f body] runs [body] with [f] installed as the solver's
    oracle: after every {!resolve} (a one-shot {!solve} is one),
    [f ~c ~rows outcome] is called with the family member that was
    actually solved ([rows] in {!solve}'s sparse format, paired with the
    member's rhs) and its outcome. The previous
    oracle is restored when [body] returns or raises. The hook is a
    process-wide setting read from worker domains, so install it around
    a whole run, not from inside a worker; [f] itself must be
    domain-safe and must neither keep nor mutate [c] and [rows]. With
    no oracle installed a solve costs nothing extra. Tests use it to
    re-solve every LP on the dense reference tableau. *)
