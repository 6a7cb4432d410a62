(* The standing broker: a priced Qp_market.Broker over one workload
   instance, plus serving counters. The identity contract with one-shot
   `qpricing price` is structural: both paths call the same
   Workload_instances.build, the same Valuations.apply with the same
   Rng.create seed, and the same Qp_core.Algorithms solver — so there
   is nothing to drift. *)

module WI = Qp_experiments.Workload_instances
module Runner = Qp_experiments.Runner
module Market = Qp_market.Broker
module H = Qp_core.Hypergraph
module P = Qp_core.Pricing
module V = Qp_workloads.Valuations
module Rng = Qp_util.Rng
module Timing = Qp_util.Timing

type t = {
  workload : string;
  seed : int;
  pricing_key : string;
  market : Market.t;  (* built and priced; never mutated while serving *)
  (* Counters and latency histograms only; mutated from the serving
     domain, read by STATS/METRICS replies on that same domain (and by
     callers after the loop has drained). [requests] counts *completed*
     requests — it is bumped after the response is built, so at any
     snapshot it equals [request_hist]'s count exactly. *)
  mutable connections : int;
  mutable requests : int;
  mutable quotes : int;
  mutable errors : int;
  (* Survivability counters: quotes refused by admission control,
     connections reaped by a deadline, clients that vanished mid-reply.
     None of these are [errors] — errors are replies to requests the
     broker actually ran. *)
  mutable shed : int;
  mutable timeouts : int;
  mutable client_gone : int;
  (* What a HEALTH probe reports; owned by the Server loop (Serving ->
     Draining), except that an overloaded dispatch reports Overloaded
     directly. *)
  mutable lifecycle : Protocol.health_state;
  request_hist : Qp_obs.Hist.t;
  quote_hist : Qp_obs.Hist.t;
  started_ns : int64;  (* monotonic clock, like every latency read *)
}

(* Fresh serving wrapper around a priced market — shared by the compute
   path (of_instance) and the snapshot path (load_snapshot). Counters
   always start at zero: a restored broker is a new serving session
   over old state, not a resumed one. *)
let make ~workload ~seed ~pricing_key market =
  {
    workload;
    seed;
    pricing_key;
    market;
    connections = 0;
    requests = 0;
    quotes = 0;
    errors = 0;
    shed = 0;
    timeouts = 0;
    client_gone = 0;
    lifecycle = Protocol.Serving;
    request_hist = Qp_obs.Hist.create ();
    quote_hist = Qp_obs.Hist.create ();
    started_ns = Timing.now_ns ();
  }

let of_instance ?(profile = Runner.Quick) ~model ~pricing ~seed
    (instance : WI.t) =
  Qp_obs.with_span "serve.precompute"
    ~args:(fun () ->
      [
        ("workload", Qp_obs.Str instance.key);
        ("pricing", Qp_obs.Str pricing);
        ("seed", Qp_obs.Int seed);
      ])
  @@ fun () ->
  let market =
    Market.adopt ~db:instance.db ~support:instance.deltas
      ~queries:instance.queries ~stats:instance.build_stats
      (V.apply ~rng:(Rng.create seed) model instance.hypergraph)
  in
  (* Force the membership-class cache before the request loop starts:
     classes are computed lazily and every LP-based family needs them —
     a standing broker should pay this at load, not on request 1. *)
  ignore (H.classes (Market.hypergraph market));
  ignore
    (Market.price market ~lpip_options:(Runner.lpip_options profile)
       ~cip_options:(Runner.cip_options profile) ~algorithm:pricing);
  make ~workload:instance.key ~seed ~pricing_key:pricing market

(* --- snapshots -------------------------------------------------------- *)

(* The marshaled payload: exactly the expensive immutable state — the
   priced market (database with its columnar images, support, valued
   hypergraph with its class cache, pricing) — and no serving counter.
   The buyer queries are dropped ([Market.without_buyers]): a restored
   server prices through the hypergraph and parses every QUOTE fresh.
   Everything reachable from here is pure data (ADTs, records, arrays,
   atomic key-index slots, the dataset and account Hashtbls) — no
   closures, which Marshal's default flags reject, so accidentally
   capturing one fails at save time, not on some later load. Any shape change to this record or the types it
   reaches must bump Snapshot.format_version (enforced by the
   snapshot-version rule of scripts/lint.ml). *)
type frozen = {
  f_workload : string;
  f_seed : int;
  f_pricing_key : string;
  f_market : Market.t;
}

let save_snapshot ~file ~config t =
  if
    config.Snapshot.workload <> t.workload
    || config.Snapshot.seed <> t.seed
    || config.Snapshot.pricing <> t.pricing_key
  then Error "snapshot config does not describe this broker"
  else
    let frozen =
      {
        f_workload = t.workload;
        f_seed = t.seed;
        f_pricing_key = t.pricing_key;
        f_market = Market.without_buyers t.market;
      }
    in
    match Marshal.to_string frozen [] with
    | payload -> Snapshot.write_file ~file ~config payload
    | exception Invalid_argument msg ->
        Error ("unmarshalable broker state: " ^ msg)

let load_snapshot ~file config =
  match Snapshot.read_file ~file config with
  | Error e -> Error e
  | Ok payload -> (
      (* The header already vouched for version and bytes; the catch is
         a backstop, not a validation strategy. *)
      match (Marshal.from_string payload 0 : frozen) with
      | exception Failure msg -> Error (Snapshot.Corrupt msg)
      | fz ->
          if
            fz.f_workload <> config.Snapshot.workload
            || fz.f_seed <> config.Snapshot.seed
            || fz.f_pricing_key <> config.Snapshot.pricing
          then
            Error (Snapshot.Corrupt "payload does not match the header config")
          else begin
            (* The class cache marshals with the hypergraph; forcing it
               is a no-op then, and a correctness net if it ever did
               not. *)
            ignore (H.classes (Market.hypergraph fz.f_market));
            Ok
              (make ~workload:fz.f_workload ~seed:fz.f_seed
                 ~pricing_key:fz.f_pricing_key fz.f_market)
          end)

let workload t = t.workload
let pricing_key t = t.pricing_key
let market t = t.market
let pricing t = Market.active_pricing t.market
let seed t = t.seed
let queries t = H.m (Market.hypergraph t.market)
let items t = H.n_items (Market.hypergraph t.market)

let quote_index t i =
  let h = Market.hypergraph t.market in
  if i < 0 || i >= H.m h then
    invalid_arg (Printf.sprintf "Qp_serve.Broker.quote_index: %d" i);
  let e = H.edge h i and p = Market.active_pricing t.market in
  {
    Protocol.price = P.price p e;
    size = Array.length e.H.items;
    sold = Some (P.sells p e);
  }

let same_quote (a : Protocol.quote) (b : Protocol.quote) =
  Int64.bits_of_float a.price = Int64.bits_of_float b.price
  && a.size = b.size && a.sold = b.sold

(* The only per-request relational work is the market's conflict set
   for the parsed query. *)
let quote_sql t sql =
  match Qp_relational.Sql.parse ~db:(Market.database t.market) sql with
  | Error msg -> Error msg
  | Ok query ->
      let price, items = Market.quote_items t.market query in
      Ok { Protocol.price; size = Array.length items; sold = None }

let note_connection t =
  t.connections <- t.connections + 1;
  Qp_obs.counter "serve.connections" 1

let note_timeout t =
  t.timeouts <- t.timeouts + 1;
  Qp_obs.counter "serve.timeouts" 1

let note_client_gone t =
  t.client_gone <- t.client_gone + 1;
  Qp_obs.counter "serve.client_gone" 1

let set_lifecycle t st = t.lifecycle <- st

(* STATS stays an integer-only reply; percentiles ride along in
   nanoseconds. Keys sorted by name, as always. *)
let stats t =
  let s = Qp_obs.Hist.snapshot t.request_hist in
  let q p = int_of_float (Qp_obs.Hist.quantile_ns s p) in
  [
    ("client_gone", t.client_gone);
    ("connections", t.connections);
    ("errors", t.errors);
    ("p50_ns", q 50.0);
    ("p95_ns", q 95.0);
    ("p99_ns", q 99.0);
    ("quotes", t.quotes);
    ("requests", t.requests);
    ("shed", t.shed);
    ("timeouts", t.timeouts);
  ]

let counter name help v = Metrics.Counter { name; help; value = float_of_int v }
let gauge name help value = Metrics.Gauge { name; help; value }
let histogram name help hist = Metrics.Histogram { name; help; hist }

(* The Prometheus text-exposition body of a METRICS reply: lifetime
   counters, standing-instance gauges and the two latency histograms,
   plus, with tracing on, the Qp_obs registry. Protocol.print_response
   adds the wire framing (the # EOF terminator). *)
let metrics_text t =
  let base =
    [
      counter "qp_serve_connections_total" "Connections accepted by the broker"
        t.connections;
      counter "qp_serve_requests_total"
        "Request lines completed (equals qp_serve_request_seconds_count)"
        t.requests;
      counter "qp_serve_quotes_total" "Successful PRICE/QUOTE replies" t.quotes;
      counter "qp_serve_errors_total" "Typed ERR replies" t.errors;
      counter "qp_serve_shed_total"
        "PRICE/QUOTE requests shed by admission control (ERR overloaded)" t.shed;
      counter "qp_serve_timeouts_total"
        "Connections reaped by the idle/write deadline (ERR timeout)" t.timeouts;
      counter "qp_serve_client_gone_total"
        "Clients that disconnected with a reply or request in flight"
        t.client_gone;
      gauge "qp_serve_queries" "Standing workload queries (valid PRICE index range)"
        (float_of_int (queries t));
      gauge "qp_serve_items" "Support-set size of the standing instance"
        (float_of_int (items t));
      gauge "qp_serve_uptime_seconds" "Seconds since the broker finished precompute"
        (Timing.seconds_since t.started_ns);
      histogram "qp_serve_request_seconds" "Server-side latency of completed requests"
        (Qp_obs.Hist.snapshot t.request_hist);
      histogram "qp_serve_quote_seconds"
        "Server-side latency of successful PRICE/QUOTE replies"
        (Qp_obs.Hist.snapshot t.quote_hist);
    ]
  in
  (* With tracing on, the whole Qp_obs registry rides along under a
     distinct qp_obs_ namespace (so e.g. the obs counter
     "serve.requests" cannot collide with qp_serve_requests_total). *)
  let obs =
    if not (Qp_obs.enabled ()) then []
    else
      let obs_name label =
        let mangled = Metrics.mangle label in
        "qp_obs_" ^ String.sub mangled 3 (String.length mangled - 3)
      in
      List.map
        (fun (label, v) ->
          counter (obs_name label ^ "_total") ("Qp_obs counter " ^ label) v)
        (Qp_obs.counters ())
      @ List.map
          (fun (label, v) ->
            gauge (obs_name label) ("Qp_obs gauge (high-water) " ^ label) v)
          (Qp_obs.gauges ())
      @ List.concat_map
          (fun (label, (h : Qp_obs.Hist.snapshot)) ->
            histogram (obs_name label ^ "_seconds")
              ("Qp_obs span durations for " ^ label)
              h
            ::
            (if h.gc_minor_words = 0 && h.gc_major_words = 0 then []
             else
               [
                 counter (obs_name label ^ "_gc_minor_words_total")
                   ("Minor-heap words allocated inside " ^ label ^ " spans")
                   h.gc_minor_words;
                 counter (obs_name label ^ "_gc_major_words_total")
                   ("Major-heap words allocated inside " ^ label ^ " spans")
                   h.gc_major_words;
               ]))
          (Qp_obs.histograms ())
  in
  Metrics.render (base @ obs)

let info t =
  {
    Protocol.workload = t.workload;
    pricing = t.pricing_key;
    queries = queries t;
    items = items t;
    seed = t.seed;
  }

(* Deterministic fault key for a parsed request: the identity of the
   work, never an arrival counter — so a chaos schedule is independent
   of client interleaving (docs/ROBUSTNESS.md discipline). *)
let request_key = function
  | Protocol.Price i -> abs i
  | Protocol.Quote sql -> Qp_fault.site_key sql
  | Protocol.Ping | Protocol.Info | Protocol.Stats | Protocol.Metrics
  | Protocol.Health | Protocol.Shutdown ->
      0

let dispatch ~overloaded t line =
  Qp_obs.with_span "serve.request"
    ~args:(fun () ->
      [ ("verb", Qp_obs.Str (fst (Protocol.split_verb (String.trim line)))) ])
  @@ fun () ->
  Qp_obs.counter "serve.requests" 1;
  let err tag msg =
    t.errors <- t.errors + 1;
    Qp_obs.counter "serve.errors" 1;
    Protocol.Error_reply (tag, msg)
  in
  let parse_faulted =
    Qp_fault.enabled ()
    && Qp_fault.check ~key:(Qp_fault.site_key line) "serve.parse" <> None
  in
  if parse_faulted then err Protocol.Parse "injected fault at serve.parse"
  else
    match Protocol.parse_request line with
    | Error (tag, msg) -> err tag msg
    (* Admission control: past the high-water mark the expensive verbs
       are shed with a typed reply (not counted as an error — the
       broker did exactly what it promised), while the cheap verbs
       below still answer so probes see live-but-saturated. *)
    | Ok ((Protocol.Price _ | Protocol.Quote _) as req) when overloaded ->
        t.shed <- t.shed + 1;
        Qp_obs.counter "serve.shed" 1;
        Protocol.Error_reply
          ( Protocol.Overload,
            Printf.sprintf "%s shed: broker past its high-water mark, retry \
                            later"
              (fst (Protocol.split_verb (Protocol.print_request req))) )
    | Ok req -> (
        let fault =
          if Qp_fault.enabled () then
            Qp_fault.check ~key:(request_key req) "serve.request"
          else None
        in
        let quote_of req =
          let quoted =
            match req with
            | Protocol.Price i when i < 0 || i >= queries t ->
                Error
                  ( Protocol.Bad_index,
                    Printf.sprintf "index %d outside [0, %d)" i (queries t) )
            | Protocol.Price i -> Ok (quote_index t i)
            | Protocol.Quote sql ->
                Result.map_error (fun msg -> (Protocol.Sql, msg)) (quote_sql t sql)
            | _ -> assert false
          in
          match quoted with
          | Ok q ->
              t.quotes <- t.quotes + 1;
              Qp_obs.counter "serve.quotes" 1;
              Protocol.Quote_reply q
          | Error (tag, msg) -> err tag msg
        in
        match (fault, req) with
        | Some Qp_fault.Nan, (Protocol.Price _ | Protocol.Quote _) -> (
            (* The nan kind corrupts the numeric result instead of
               failing the request — the quote still answers, visibly
               poisoned, mirroring the simplex site's behaviour. *)
            match quote_of req with
            | Protocol.Quote_reply q ->
                Protocol.Quote_reply { q with Protocol.price = Float.nan }
            | other -> other)
        | Some _, _ -> err Protocol.Fault "injected fault at serve.request"
        | None, _ -> (
            try
              match req with
              | Protocol.Ping -> Protocol.Pong
              | Protocol.Info -> Protocol.Info_reply (info t)
              | Protocol.Stats -> Protocol.Stats_reply (stats t)
              | Protocol.Metrics -> Protocol.Metrics_reply (metrics_text t)
              | Protocol.Health ->
                  Protocol.Health_reply
                    (if overloaded then Protocol.Overloaded else t.lifecycle)
              | Protocol.Shutdown -> Protocol.Bye
              | Protocol.Price _ | Protocol.Quote _ -> quote_of req
            with
            | Qp_fault.Injected site ->
                err Protocol.Fault ("injected fault at " ^ site)
            | e -> err Protocol.Internal (Printexc.to_string e)))

(* Wrap dispatch with the always-on latency histograms (independent of
   the obs enabled flag — METRICS/STATS must work on a production
   broker with tracing off), timed on the monotonic clock so a wall
   clock step cannot clamp or inflate the percentiles. The
   completed-request counter is bumped last so a METRICS snapshot taken
   *during* a request (i.e. its own) never shows count and histogram
   out of step. *)
let handle ?(overloaded = false) t line =
  let t0 = Timing.now_ns () in
  let resp = dispatch ~overloaded t line in
  let dt_ns = Int64.to_int (Int64.sub (Timing.now_ns ()) t0) in
  Qp_obs.Hist.record t.request_hist dt_ns;
  (match resp with
  | Protocol.Quote_reply _ -> Qp_obs.Hist.record t.quote_hist dt_ns
  | _ -> ());
  t.requests <- t.requests + 1;
  resp
