(** Full query evaluation.

    A query is compiled once against the database's schemas into a
    {!plan} (column resolution, predicate pushdown, equi-join detection)
    and can then be run against any instance with the same schemas —
    which is exactly what conflict-set computation needs, since every
    support instance shares the seller instance's schemas. *)

type plan

val prepare : Database.t -> Query.t -> plan
(** Resolves and compiles. Raises [Invalid_argument] on unknown tables
    or columns, ill-typed aggregates, etc. *)

val run_plan : plan -> Database.t -> Result_set.t
(** Evaluates on an instance schema-compatible with the one the plan
    was prepared on. *)

val run : Database.t -> Query.t -> Result_set.t
(** [prepare] + [run_plan] in one step. *)

(** {2 Introspection used by {!Delta_eval}} *)

val query : plan -> Query.t
(** The query the plan was compiled from. *)

val from_env : plan -> (string * Schema.t) array
(** The alias/schema environment the plan compiled against. *)

val join_all : plan -> Database.t -> Expr.env list
(** Every [WHERE]-satisfying environment (the pre-aggregation rows). *)

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

(** {2 Introspection used by {!Col_eval}}

    The columnar engine reuses this module's plan — column resolution,
    predicate classification, equi-join detection — and swaps only the
    data access layer. These accessors expose the classified plan
    pieces it drives its kernels and indexes from; a reference join
    enumerator for {!Delta_eval.prepare_with} builds on the same
    pieces. *)

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
    already-enumerated join environments; {!run_plan} is
    {!join_all} composed with this. Both engines share it, so answer
    construction is engine-independent by construction. *)
