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
      grouped queries selecting non-key fields) — full re-evaluation
      with the compiled plan. Always runs on the row engine: a full
      re-evaluation has no per-delta kernel to vectorize, and using one
      code path keeps the oracle and the columnar mode trivially
      identical there.

    Every strategy is observationally equivalent to
    [not (Result_set.equal (Eval.run d' q) (Eval.run d q))]; the test
    suite checks this by property.

    {2 Engines}

    Join enumeration behind the strategies runs on one of two engines:
    the vectorized {!Col_eval} engine over {!Col_table} columnar images
    ([Columnar], the default and the only one production builds use),
    or the original row-at-a-time {!Eval} engine ([Row]), kept as the
    reference that tests and benches name explicitly. The columnar
    engine additionally short-circuits [Cell_change] deltas on columns
    the query never references; the row engine does not, so comparing
    the two engines' answers (for conflict sets,
    [Qp_market.Conflict.disagreements]) exercises that shortcut too. *)

type engine = Row | Columnar

val engine_name : engine -> string
(** ["row"] or ["columnar"]. *)

type t

val prepare : ?engine:engine -> Database.t -> Query.t -> t
(** Compiles the query, enumerates its pre-aggregation rows once, and
    builds the per-strategy base state on [engine] (default
    [Columnar]). *)

val query : t -> Query.t
(** The query this preparation was built for. *)

val base_result : t -> Result_set.t
(** [Q(D)], computed lazily from the same plan. *)

val strategy_name : t -> string
(** ["rowwise"], ["rowwise-distinct"], ["grouped"], ["limited"] or
    ["fallback"] — exposed for tests and diagnostics. *)

val differs : t -> Delta.t -> bool
(** Whether the perturbed instance changes the query answer. *)
