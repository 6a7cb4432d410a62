(** Columnar join enumeration — the library's one join engine, behind
    every full answer ({!run}) and every {!Delta_eval} probe.

    Shares {!Eval}'s plan (resolution, predicate classification, equi
    detection) and its output construction ({!Eval.result_of_envs});
    filters candidates with vectorized kernels over the {!Col_table}
    images the database owns and probes equi-joins through each
    column's key index ({!Col_table.keys}). Environments materialize
    as pointers to the source relations' row tuples, so the test-only
    row-at-a-time reference enumerates the same multiset of
    environments and builds answers through the same code. *)

type t
(** Per-instance prepared state: per-level selection vectors and join
    indexes. *)

val prepare : Eval.plan -> Database.t -> t
(** Build selection vectors and indexes for one instance, over the
    columnar images the database owns ({!Database.columns}). *)

val join_all : t -> Expr.env list
(** Every [WHERE]-satisfying join environment (the pre-aggregation
    rows), reusing the prepared indexes. *)

val join_fixed : t -> int * Relation.tuple -> Expr.env list
(** [join_fixed t (pos, tup)] is every [WHERE]-satisfying join
    environment in which [FROM] position [pos] is bound to [tup] (which
    need not occur in the instance — this is how {!Delta_eval} probes a
    changed tuple for its contribution to the answer). When the pinned
    level joins a level-0 column directly, the level-0 scan shrinks to
    that value's bucket of the column's key index
    ({!Col_table.keys}). *)

val run : Database.t -> Query.t -> Result_set.t
(** [run db q] is the full answer [Q(D)] — the library's one
    full-answer entry point. Raises [Invalid_argument] as
    {!Eval.prepare} does. *)

(** {2 Per-delta emptiness pre-checks}

    {!Delta_eval}'s hot loop asks, per delta, for the contributions of
    the old and new tuple; for most deltas both are empty. These decide
    that common case from precomputed state in a few hash lookups,
    skipping {!join_fixed} entirely. *)

val seed_participating : t -> Expr.env list -> unit
(** Record the satisfying envs (as returned by {!join_all}) so
    {!row_participates} need not re-enumerate. A no-op if already
    seeded, and for star plans, which never consult the table: their
    pins are decided directly from indexes and per-level masks. *)

val row_participates : t -> int -> int -> bool
(** [row_participates t lvl row] — whether the stored row [row] of
    [FROM] position [lvl]'s table (or a tuple equal to it by value)
    occurs in a satisfying env. [false] is always exact — it proves
    the old tuple of a delta on that row contributes nothing. On star
    plans (no cross-level filters, every equi probing only level 0) a
    level-0 row is one bit test in the AND of the per-level partner
    masks, and a dimension row a bit test in its level's joinable-key
    set; other plans hash the seeded (or lazily enumerated) env set. *)

val may_extend : t -> int -> Relation.tuple -> bool
(** Joinability of a {e new} tuple pinned at a level — a tuple the
    database never held, so env membership cannot answer it. [false]
    is exact (the tuple fails its level's single conjuncts, or a
    required partner bucket/mask is empty); [true] means "maybe", and
    the caller falls back to {!join_fixed}. Exact on star plans except
    for pinned levels probed only by non-column expressions. *)
