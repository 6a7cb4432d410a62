(** Conflict-set computation (§3.2): the bundle a query maps to.

    [CS(Q, D) = { D' in S | Q(D) <> Q(D') }] — the support instances a
    buyer can rule out after seeing the answer. Each query is prepared
    once ({!Qp_relational.Delta_eval}) and then tested against every
    support delta incrementally.

    Instance construction is the pipeline's dominant cost (the paper's
    §7 scalability remark), so {!hypergraph} fans the per-query work out
    over the {!Qp_util.Parallel} domain pool: one task per
    (query, delta-array) row, each preparing its query privately, with a
    sequential index-ordered merge — the resulting hypergraph is
    bit-identical to the sequential build at any job count. *)

module Database = Qp_relational.Database
module Query = Qp_relational.Query
module Delta = Qp_relational.Delta

(** Instrumentation of one {!hypergraph} build. *)
type stats = {
  queries : int;  (** number of hyperedges built (buyer queries) *)
  support : int;  (** support size [n] (items) *)
  fallback_queries : int;  (** queries that used full re-evaluation *)
  failed_queries : (string * string) list;
      (** queries dropped from the hypergraph after failing twice
          (initial task + one sequential retry): query name and the
          second attempt's error. Empty in healthy builds. *)
  strategies : (string * int) list;
      (** query count per {!Qp_relational.Delta_eval.strategy_name},
          sorted by name — the delta-eval vs fallback split *)
  jobs : int;  (** worker-pool size actually used for the build *)
  query_seconds : float array;
      (** per-query prepare+scan seconds (monotonic clock), in workload order *)
  worker_busy : float array;
      (** seconds each pool worker spent computing conflict sets;
          worker 0 is the calling domain *)
  elapsed : float;  (** seconds (monotonic clock) for the whole computation *)
}

val conflict_set : Database.t -> Query.t -> Delta.t array -> int array
(** Sorted support indices in conflict with one query. *)

val hypergraph :
  ?on_progress:(done_:int -> total:int -> unit) ->
  ?jobs:int ->
  ?prepare:(Database.t -> Query.t -> Qp_relational.Delta_eval.t) ->
  Database.t ->
  (Query.t * float) list ->
  Delta.t array ->
  Qp_core.Hypergraph.t * stats
(** Build the pricing instance for a valued workload: item [i] is
    support delta [i]; each [(query, valuation)] becomes one hyperedge
    named after the query.

    Queries are distributed over the {!Qp_util.Parallel} pool ([jobs]
    overrides [QP_JOBS]); the merge is sequential in workload order, so
    the hypergraph (edge order, items, valuations) is bit-identical at
    any job count. Every worker prepares its queries with [prepare]
    (default {!Qp_relational.Delta_eval.prepare}, the columnar engine);
    a test or bench passes a reference preparation (built with
    {!Qp_relational.Delta_eval.prepare_with}) and compares the two
    builds with {!disagreements}. [on_progress] fires from
    the merge side only — once per query with [done_] strictly
    increasing from 1 to [total] — never from a worker domain.

    Robustness: a query whose task raises (including an injected
    ["conflict.query"] fault, key = workload index) is retried once
    sequentially during the merge with [attempt = 1]; failing again
    drops it from the hypergraph — a partial market instead of an
    aborted build — recorded in [failed_queries], the
    ["conflict.query_failures"] counter and a ["conflict.query_failed"]
    event (retries bump ["conflict.query_retries"]). *)

val disagreements :
  Qp_core.Hypergraph.t -> Qp_core.Hypergraph.t -> (string * int) list
(** [disagreements h_a h_b] — every (edge name, item) membership that
    one hypergraph has and the other lacks: per edge, the symmetric
    difference of the two item sets, in edge order then item order. Its
    length is [sum_q |E_a(q) Δ E_b(q)|], the number of (query, delta)
    pairs on which two builds of one workload (say the default build
    and one with a reference [~prepare]) disagree; [[]] means the
    conflict sets are identical. Valuations are not compared. Raises [Invalid_argument]
    if the edge counts differ or the edges at some position carry
    different names. *)

val query_time_histogram : ?buckets:int -> stats -> string
(** ASCII histogram (log counts) of per-query build times in
    microseconds — the "where the time goes" view of a build. *)

val pp_stats : Format.formatter -> stats -> unit
(** Multi-line human-readable rendering of a build's instrumentation
    (totals, strategy split, worker utilization, time histogram). *)
