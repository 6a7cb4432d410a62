(** End-to-end data-market broker: the Qirana-like runtime the paper's
    pipeline sits on.

    Lifecycle:
    + {!create} — fix the seller's instance and sample the support set;
    + {!add_buyer} — register the query workload with valuations
      (obtained from market research, §3.3);
    + {!build} — map every buyer query to its conflict-set hyperedge;
    + {!price} — run one of the revenue-maximization algorithms;
    + {!quote} / {!purchase} — serve queries (including fresh ones that
      were never part of the priced workload) at arbitrage-free prices,
      collecting revenue.

    Out-of-order calls raise [Invalid_argument] with a description of
    the missing step.

    {!adopt} skips the first three steps for an instance built
    elsewhere; the serving broker ({!Qp_serve.Broker}) stands on an
    adopted, priced broker and answers every request through it. *)

module Database = Qp_relational.Database
module Query = Qp_relational.Query
module Result_set = Qp_relational.Result_set
module Delta = Qp_relational.Delta

type t

val create :
  ?seed:int ->
  ?support_size:int ->
  ?support_config:Support.config ->
  Database.t ->
  t
(** Default seed 42, support size 256. The support set is sampled
    lazily, at the first {!build}/{!support} call: if buyers are
    registered by then, sampling is query-aware
    ({!Support.generate_query_aware}), otherwise uniform. *)

val adopt :
  db:Database.t ->
  support:Delta.t array ->
  queries:Query.t list ->
  stats:Conflict.stats ->
  Qp_core.Hypergraph.t ->
  t
(** A built broker over an instance computed elsewhere, without
    recomputing any conflict set: the hypergraph must be
    {!Conflict.hypergraph} of [queries] against [support] (its edge
    valuations become the buyers' valuations, and queries the build
    dropped, which have no edge, are not buyers), and [stats] that
    build's instrumentation. Raises [Invalid_argument] when the
    hypergraph's item count differs from the support size or an edge
    name matches no query in order. *)

val database : t -> Database.t
(** The seller's instance [D]. *)

val without_buyers : t -> t
(** A copy sharing every field but the buyer list, which is empty: the
    broker a snapshot keeps. Pricing, quoting and purchasing read the
    built hypergraph, whose edges carry the buyers' valuations, and
    never the buyer queries. *)

val support : t -> Delta.t array
(** Forces the sampling if it has not happened yet. *)

val add_buyer : t -> valuation:float -> Query.t -> unit
(** Register one buyer query with its valuation; invalidates any
    previous {!build} and pricing. Raises [Invalid_argument] unless the
    valuation is finite and non-negative. *)

val buyers : t -> (Query.t * float) list
(** Registered buyers, in registration order. *)

val build :
  ?on_progress:(done_:int -> total:int -> unit) -> ?jobs:int -> t -> unit
(** Computes every buyer's conflict set on the {!Qp_util.Parallel} pool
    ([jobs] overrides [QP_JOBS]; the result is identical at any job
    count); idempotent until the buyer list changes. [on_progress] fires
    monotonically from the merge side (see {!Conflict.hypergraph}). *)

val hypergraph : t -> Qp_core.Hypergraph.t
(** Requires {!build}. *)

val build_stats : t -> Conflict.stats
(** Requires {!build}. *)

val price :
  ?lpip_options:Qp_core.Lpip.options ->
  ?cip_options:Qp_core.Cip.options ->
  t ->
  algorithm:string ->
  Qp_core.Pricing.t
(** Runs the named family (a {!Qp_core.Algorithms.keys} entry, with the
    given LPIP/CIP options) on the built hypergraph, stores the result
    as the active pricing, and returns it. Requires {!build}; raises
    [Invalid_argument] on an unknown key. *)

val set_pricing : t -> Qp_core.Pricing.t -> unit
(** Install a pricing computed elsewhere. *)

val active_pricing : t -> Qp_core.Pricing.t
(** Requires {!price} or {!set_pricing}. *)

val expected_revenue : t -> float
(** Revenue of the active pricing over the registered buyers. *)

val quote_items : t -> Query.t -> float * int array
(** The broker's one pricing path for a fresh query: its conflict set
    against the support (sorted item indices), computed on the fly, and
    that set's price under the active pricing. Arbitrage-freeness
    extends to queries outside the workload because the price is still
    [f(CS(Q, D))] for the same monotone subadditive [f]. {!quote},
    {!purchase}, {!purchase_as} and a served [QUOTE] all go through
    it. *)

val quote : t -> Query.t -> float
(** The price half of {!quote_items}. *)

val purchase :
  t -> budget:float -> Query.t -> [ `Sold of float * Result_set.t | `Declined of float ]
(** Quote the query; if the buyer's budget covers it, record the sale
    and return the answer with the price paid, otherwise decline. *)

val revenue_collected : t -> float
(** Total from {!purchase} and {!purchase_as} sales. *)

(** {2 History-aware pricing}

    Upadhyaya et al. (cited in the paper's §2) study history-aware
    pricing with refunds: a returning buyer should not pay twice for
    overlapping information. The broker implements the refund folded
    into the charge: a named account is charged the {e marginal} price
    [f(H ∪ CS(Q)) - f(H)] where [H] is the union of the bundles it
    already bought. Monotonicity makes the marginal non-negative and
    subadditivity caps it by the standalone price [f(CS(Q))], so the
    scheme never overcharges relative to fresh purchases and stays
    arbitrage-free for each account's own history. *)

val purchase_as :
  t ->
  account:string ->
  budget:float ->
  Query.t ->
  [ `Sold of float * Result_set.t | `Declined of float ]
(** Quote the marginal price for this account; on success the account's
    history absorbs the query's conflict set. *)

val account_history : t -> string -> int array
(** Sorted support items the account has already paid for (empty for
    unknown accounts). *)

val account_spent : t -> string -> float
(** Total the account has paid across its purchases (0 for unknown
    accounts). *)
