(** Incremental query evaluation against single-tuple deltas.

    Conflict-set computation asks, for one query and thousands of
    support deltas, whether [Q(D ⊕ δ) <> Q(D)]. Re-running the query per
    delta costs |support| full evaluations per query; this module
    answers each test from the changed tuple's {e contribution} to the
    answer instead, which is constant-time for most of the paper's
    workload queries.

    Strategy selection (per query, at {!prepare} time):
    - {b rowwise}: no aggregates / grouping / DISTINCT / LIMIT — compare
      the old and new tuple's projected contributions as multisets.
    - {b rowwise-distinct}: as above with DISTINCT — decide via
      precomputed projection multiplicities whether the answer {e set}
      changes.
    - {b grouped}: aggregates, optionally GROUP BY where every selected
      field is a group key — recompute only the affected groups'
      aggregate outputs through {!Agg_state.output_with_delta}.
    - {b limited}: plain [LIMIT k] queries (no aggregates / grouping /
      DISTINCT / self-joins) — keep the full sorted projected multiset
      and compare only its first [k] rows against the delta-adjusted
      merge.
    - {b fallback}: anything else (DISTINCT+GROUP BY, self-joins,
      grouped queries selecting non-key fields) — the definition
      itself: the preparation's own enumerator, rebuilt over [d ⊕ δ],
      answers in full and that answer is compared with {!base_result}.

    Every strategy is observationally equivalent to comparing the full
    answers ({!Eval.result_of_envs} of [joins.all]) of the
    preparation's own enumerator on [d ⊕ δ] and on [d]; the test suite
    checks this by property.

    {2 Engines}

    Join enumeration behind the strategies runs on the vectorized
    {!Col_eval} engine over {!Col_table} columnar images. Before any
    join it tries two pre-checks: a [Cell_change] on a column the query
    never reads cannot change the answer, and {!Col_eval.row_participates}
    / {!Col_eval.may_extend} prove most changed tuples contribute
    nothing. {!prepare_with} swaps in another join enumerator and runs
    neither pre-check; the test-only [qp_rel_oracle] library uses it
    for a row-at-a-time reference, so comparing its conflict sets with
    {!prepare}'s ([Qp_market.Conflict.disagreements]) exercises the
    pre-checks as well as the kernels. *)

type t

val prepare : Database.t -> Query.t -> t
(** Compiles the query, builds its columnar state, enumerates its
    pre-aggregation rows once when the strategy needs them, and builds
    the per-strategy base state. *)

type joins = {
  all : unit -> Expr.env list;
      (** every [WHERE]-satisfying environment, as
          {!Col_eval.join_all}: the rows behind every full answer *)
  fixed : int * Relation.tuple -> Expr.env list;
      (** environments with one [FROM] position pinned to a tuple, as
          {!Col_eval.join_fixed} *)
}
(** A join enumerator over one prepared instance. *)

val prepare_with : (Eval.plan -> Database.t -> joins) -> Database.t -> Query.t -> t
(** [prepare] with the join enumerator built by [joins_of plan db] in
    place of the columnar engine, and without its pre-checks — the
    seam for a reference enumerator in tests and benches. Its base
    answer and fallback re-evaluations run on [joins_of] too. *)

val base_result : t -> Result_set.t
(** [Q(D)], computed lazily on the preparation's own enumerator. *)

val strategy_name : t -> string
(** ["rowwise"], ["rowwise-distinct"], ["grouped"], ["limited"] or
    ["fallback"] — exposed for tests and diagnostics. *)

val differs : t -> Delta.t -> bool
(** Whether the perturbed instance changes the query answer. *)

type decisions = {
  skipped : int;  (** deltas on a table outside [FROM] *)
  unreferenced : int;
      (** [Cell_change]s on a column the query never reads *)
  precheck_empty : int;
      (** deltas whose old and new tuples the columnar pre-checks
          prove contribute nothing *)
  joined : int;
      (** deltas decided by a join ({!Col_eval.join_fixed}) or by
          re-evaluating the perturbed instance *)
}
(** How the {!differs} calls on one preparation were decided. Every
    call counts once. *)

val decisions : t -> decisions
(** The tally so far: plain counters on the preparation, which is
    private to the domain that made it. *)
