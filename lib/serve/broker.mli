(** The standing pricing broker behind [qpricing serve]: load a
    workload's data and support set once, precompute the conflict
    hypergraph and one pricing function, then answer any number of
    quote requests against that cached state.

    This broker stands on {!Qp_market.Broker}: it adopts a built
    workload instance into one market broker ({!Qp_market.Broker.adopt}),
    prices it once, and keeps only serving state (counters, latency
    histograms, lifecycle) of its own. [PRICE i] reads the market's
    hyperedge [i] and active pricing; [QUOTE] parses the SQL and goes
    through the market's one fresh-query path
    ({!Qp_market.Broker.quote_items}). What is standing vs recomputed
    per request is spelled out in [docs/SERVING.md] ("Caching
    semantics").

    Quote identity: {!quote_index} prices workload query [i] by
    applying the cached pricing to the cached hyperedge — bit-identical
    to what a one-shot [qpricing price] run with the same (workload,
    scale, support, seed, model, profile) computes for that query,
    because both paths build the identical instance and run the
    identical {!Qp_core.Algorithms} solver ([test/test_serve.ml] pins
    this for every family; [make serve-smoke] re-checks it over a live
    socket). *)

type t
(** A standing broker. The priced market it stands on is never mutated
    after {!of_instance}; only request counters mutate, and only from
    the serving domain. *)

val of_instance :
  ?profile:Qp_experiments.Runner.profile ->
  model:Qp_workloads.Valuations.model ->
  pricing:string ->
  seed:int ->
  Qp_experiments.Workload_instances.t ->
  t
(** Adopt a built instance without recomputing its conflict sets, draw
    valuations and solve the pricing family (span ["serve.precompute"];
    [profile], default [Quick], picks the LPIP/CIP sweep options). *)

val save_snapshot :
  file:string -> config:Snapshot.config -> t -> (unit, string) result
(** Checkpoint the priced market (database, support, buyers,
    valuation-applied hypergraph with its class cache, pricing
    function) to a versioned
    snapshot file via {!Snapshot.write_file}; [config] must be the
    parameters the broker was built from (its workload/seed/pricing are
    cross-checked). Counters and histograms are deliberately not saved:
    a restored broker is a fresh serving session over old state.
    [Error] carries the OS, injection, or mismatch message. *)

val load_snapshot :
  file:string -> Snapshot.config -> (t, Snapshot.load_error) result
(** Restore a broker from a snapshot written under the same
    {!Snapshot.format_version} and an equal config digest — refusing
    anything else with a typed {!Snapshot.load_error} (the caller falls
    back to {!of_instance}). A restored broker serves quotes bit-identical
    to the one that saved the snapshot: the pricing function's bytes
    are the pricing function. Orders of magnitude cheaper than a fresh
    build (no dataset build, no solve) — [bench serve] publishes
    the ratio as [recovery_ms] vs [precompute_seconds]. *)

val workload : t -> string
(** The workload key the broker stands on. *)

val pricing_key : t -> string
(** The pricing-family key chosen at creation. *)

val market : t -> Qp_market.Broker.t
(** The priced market broker this one stands on. Callers must not
    mutate it (no [add_buyer], [price] or purchases): requests read it
    as immutable state. *)

val pricing : t -> Qp_core.Pricing.t
(** The cached pricing function itself (the market's active pricing). *)

val seed : t -> int
(** The broker's random seed. *)

val queries : t -> int
(** Number of standing buyer queries (hyperedges) — the valid [PRICE]
    index range is [0, queries). *)

val items : t -> int
(** Support-set size (ground-set items). *)

val quote_index : t -> int -> Protocol.quote
(** Price standing workload query [i] with the cached pricing: price,
    conflict-set size, and whether it sells to its registered buyer.
    Pure with respect to the cached state (no counters, no fault
    sites) — the oracle the smoke check compares served replies
    against. Raises [Invalid_argument] outside [0, queries). *)

val same_quote : Protocol.quote -> Protocol.quote -> bool
(** Quote identity: the same price bits, conflict-set size and sold
    flag, as a served or restored quote must share with {!quote_index}. *)

val quote_sql : t -> string -> (Protocol.quote, string) result
(** Parse raw SQL in the workload dialect and price it through
    {!Qp_market.Broker.quote_items}: its conflict set against the
    standing support (the only per-request relational work) priced with
    the cached pricing. [Error] carries the SQL parser's message. *)

val handle : ?overloaded:bool -> t -> string -> Protocol.response
(** Dispatch one raw request line: consult the ["serve.parse"] fault
    site (key = FNV-1a hash of the line), parse, consult
    ["serve.request"] (key = query index for [PRICE], hash of the SQL
    for [QUOTE], 0 otherwise), run the request, and map every failure —
    malformed line, bad index, SQL error, injected fault, unexpected
    exception — to a typed {!Protocol.Error_reply}. Never raises and
    never drops the connection. Runs under a ["serve.request"] span and
    bumps the ["serve.requests"]/["serve.quotes"]/["serve.errors"]
    counters. Independently of the obs flag, it times every request
    into always-on latency histograms (every completed request, and
    successful [PRICE]/[QUOTE] replies only) and counts the request as
    completed once its response is built — so a [METRICS]/[STATS]
    snapshot never sees counters and histograms out of step.

    With [~overloaded:true] (the {!Server} loop past its admission
    high-water mark), [PRICE]/[QUOTE] are shed with a typed
    [ERR overloaded] — counted under [shed] and ["serve.shed"], not
    [errors] — while the cheap verbs ([PING], [INFO], [STATS],
    [METRICS], [HEALTH], [SHUTDOWN]) still run, and [HEALTH] reports
    {!Protocol.Overloaded}. *)

val note_connection : t -> unit
(** Record one accepted connection (the {!Server} loop calls this);
    bumps ["serve.connections"]. *)

val note_timeout : t -> unit
(** Record one connection reaped by the idle/write deadline; bumps
    ["serve.timeouts"]. Called by the {!Server} loop. *)

val note_client_gone : t -> unit
(** Record one client that disconnected with a reply or request still
    in flight; bumps ["serve.client_gone"]. Called by the {!Server}
    loop — which must survive it, not tear down the accept loop. *)

val set_lifecycle : t -> Protocol.health_state -> unit
(** Move the lifecycle a [HEALTH] probe reports (modulo transient
    overload, which {!handle} layers on top); the {!Server} loop flips
    [Serving] → [Draining] when it stops accepting. It starts at
    {!Protocol.Serving}: a broker value exists only after precompute,
    so [Loading] is observable only through the CLI's log line, never
    over a socket. *)

val stats : t -> (string * int) list
(** Lifetime counters — client_gone, connections, errors, quotes,
    requests, shed, timeouts — plus [p50_ns]/[p95_ns]/[p99_ns]
    request-latency percentiles estimated from the live request
    histogram, sorted by name; the payload of a [STATS] reply.
    [requests] counts {e completed} requests, so the [STATS] request
    reporting it is not yet included. *)

