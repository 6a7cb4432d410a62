(** Reference evaluation for {!Qp_relational.Col_eval} and
    {!Qp_relational.Delta_eval}, for tests, benchmarks and
    [make check-rel-engines] only.

    Production answers and conflict sets run on the columnar engine
    alone. This library keeps the original row-at-a-time join
    enumerator — per-level candidate arrays, boxed
    [Value.t list] hash indexes, a lazily built reverse index on
    level 0 — and plugs it into the one seam,
    {!Qp_relational.Delta_eval.prepare_with}, which also skips the
    columnar pre-checks (unreferenced cells, participation and
    extension tests). Comparing its answers with
    {!Qp_relational.Delta_eval.prepare}'s therefore checks the kernels,
    indexes and pre-checks together. Nothing under [lib/] or [bin/]
    may link it. *)

val prepare :
  Qp_relational.Database.t -> Qp_relational.Query.t -> Qp_relational.Delta_eval.t
(** The same five strategies as {!Qp_relational.Delta_eval.prepare}, on
    the row enumerator (its base answer and fallback re-evaluations
    included) and with no pre-checks. Every level's candidates
    (its tuples passing the single conjuncts) and equi-key index are
    built once per preparation; a pinned probe rebuilds only its own
    level. *)

val run : Qp_relational.Database.t -> Qp_relational.Query.t -> Qp_relational.Result_set.t
(** The full answer [Q(D)] on the row enumerator — the brute-force
    reference for {!Qp_relational.Col_eval.run} and for conflict sets
    computed as [Q(D ⊕ δ) <> Q(D)]. *)
