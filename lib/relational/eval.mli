(** Query plans: compilation and answer construction, no join.

    A query is compiled once against the database's schemas into a
    {!plan} (column resolution, predicate pushdown, equi-join detection)
    that any instance with the same schemas can run — which is exactly
    what conflict-set computation needs, since every support instance
    shares the seller instance's schemas. This module owns no join
    enumerator: {!Col_eval} is the one engine that enumerates a plan's
    join environments (and {!Col_eval.run} the one full-answer entry
    point), and {!result_of_envs} turns any enumerator's environments
    into the answer. *)

type plan

val prepare : Database.t -> Query.t -> plan
(** Resolves and compiles. Raises [Invalid_argument] on unknown tables
    or columns, ill-typed aggregates ([SUM]/[AVG] over a string column
    or literal), etc. *)

(** {2 Introspection used by {!Delta_eval}} *)

val query : plan -> Query.t
(** The query the plan was compiled from. *)

val from_env : plan -> (string * Schema.t) array
(** The alias/schema environment the plan compiled against. *)

val project : plan -> Expr.env -> Value.t array
(** The output row for one environment. Only valid for plans without
    aggregates. *)

val group_key : plan -> Expr.env -> Value.t array
(** [GROUP BY] key values for one environment. *)

val agg_row : plan -> Expr.env -> Value.t array
(** Aggregate-argument values for one environment, positionally
    matching {!agg_kinds}. *)

val agg_kinds : plan -> Agg_state.kind array
(** Accumulator kinds for the plan's aggregates, positionally. *)

(** {2 Introspection used by the join enumerators}

    {!Col_eval} drives its kernels and indexes from this module's
    classified plan — column resolution, predicate classification,
    equi-join detection. The test-only row-at-a-time reference
    enumerator (plugged in through {!Delta_eval.prepare_with}) builds
    on the same accessors. *)

val table_names : plan -> string array
(** The relation name bound at each [FROM] position. *)

type filter_info = { f_ast : Expr.t; f_comp : Expr.compiled }
(** One non-equi conjunct: its AST (for kernel compilation) and its
    compiled closure (the scalar fallback). *)

val single_filters : plan -> int -> filter_info list
(** The conjuncts applied while building one level's candidate set:
    those reading only that level's tuple (constant conjuncts attach to
    level 0). *)

val cross_compiled : plan -> Expr.compiled array array
(** Per level, the compiled conjuncts evaluated inside the join
    recursion once that level is bound (they read several levels, all
    [<=] the attachment level). *)

val level_equis : plan -> int -> (int * Expr.compiled * int option) list
(** Each equi-join probe at a level as
    [(key_col, probe, probe_col0)]: the level's key column, the
    compiled probe expression over earlier levels, and — when the probe
    is exactly a level-0 column — that column's index (enables the
    reverse level-0 bucket of {!Col_eval.join_fixed}). *)

val result_of_envs : plan -> Expr.env list -> Result_set.t
(** Output construction (projection or grouping, DISTINCT, LIMIT) from
    already-enumerated join environments — the pre-aggregation rows.
    Every enumerator shares it, so answer construction is
    engine-independent by construction. *)
