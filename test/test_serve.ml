(* The serving layer: protocol round-trips (property-tested), broker
   dispatch and its error taxonomy, bit-identity of served quotes
   against the one-shot pricing path for every pricing family, a live
   socket session, and the request loop under fault injection.

   The identity tests build the broker and the one-shot oracle from two
   independent WI.build calls with the same parameters — the claim is
   that `qpricing serve` quotes exactly what `qpricing price` computes,
   not merely that a broker agrees with itself. *)

module SP = Qp_serve.Protocol
module SB = Qp_serve.Broker
module SS = Qp_serve.Server
module Snap = Qp_serve.Snapshot
module WI = Qp_experiments.Workload_instances
module Runner = Qp_experiments.Runner
module H = Qp_core.Hypergraph
module P = Qp_core.Pricing
module V = Qp_workloads.Valuations
module Rng = Qp_util.Rng
module F = Qp_fault

let seed = 5
let model = V.Uniform_val 100.0

(* Two independent builds of the same tiny instance: [instance] backs
   the brokers, [oracle_instance] the one-shot reference path. *)
let build_instance () = WI.build "skewed" ~scale:WI.Tiny ~support:60 ~seed ()
let instance = lazy (build_instance ())
let oracle_instance = lazy (build_instance ())

let broker_of pricing =
  SB.of_instance ~model ~pricing ~seed (Lazy.force instance)

let broker = lazy (broker_of "uip")

let with_faults spec f =
  (match F.parse spec with
  | Ok specs -> F.install specs
  | Error msg -> Alcotest.failf "bad test spec %S: %s" spec msg);
  Fun.protect ~finally:F.clear f

let same_bits a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.bits_of_float a = Int64.bits_of_float b

(* --- protocol: hand-picked round-trips and error taxonomy ------------- *)

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match SP.parse_request (SP.print_request req) with
      | Ok req' -> Alcotest.(check bool) (SP.print_request req) true (req = req')
      | Error (_, msg) -> Alcotest.failf "%s: %s" (SP.print_request req) msg)
    [
      SP.Ping; SP.Info; SP.Stats; SP.Health; SP.Shutdown; SP.Price 0;
      SP.Price 981; SP.Price (-3);
      SP.Quote "SELECT * FROM City WHERE Population > 100";
    ]

let test_request_lenient_forms () =
  let ok line expect =
    match SP.parse_request line with
    | Ok req -> Alcotest.(check bool) line true (req = expect)
    | Error (_, msg) -> Alcotest.failf "%S: %s" line msg
  in
  ok "ping" SP.Ping;
  ok "  PING  " SP.Ping;
  ok "PING\r" SP.Ping;
  ok "price 7" (SP.Price 7);
  ok "quote   SELECT 1 FROM City  " (SP.Quote "SELECT 1 FROM City")

let test_request_errors () =
  let tag line expect =
    match SP.parse_request line with
    | Error (t, _) ->
        Alcotest.(check string) line (SP.tag_name expect) (SP.tag_name t)
    | Ok _ -> Alcotest.failf "%S unexpectedly parsed" line
  in
  tag "" SP.Parse;
  tag "   " SP.Parse;
  tag "PRICE" SP.Parse;
  tag "PRICE two" SP.Parse;
  tag "PING 1" SP.Parse;
  tag "QUOTE" SP.Parse;
  tag "QUOTE   " SP.Parse;
  tag "EXPLAIN SELECT 1" SP.Unknown_verb

let test_response_roundtrip () =
  let roundtrips resp =
    match SP.parse_response (SP.print_response resp) with
    | Ok resp' -> (
        match (resp, resp') with
        | SP.Quote_reply a, SP.Quote_reply b ->
            same_bits a.SP.price b.SP.price
            && a.SP.size = b.SP.size && a.SP.sold = b.SP.sold
        | _ -> resp = resp')
    | Error _ -> false
  in
  List.iter
    (fun resp ->
      Alcotest.(check bool) (SP.print_response resp) true (roundtrips resp))
    [
      SP.Pong; SP.Bye;
      SP.Info_reply
        { SP.workload = "skewed"; pricing = "lpip"; queries = 981;
          items = 1500; seed = 42 };
      SP.Stats_reply [ ("connections", 2); ("requests", 40) ];
      SP.Quote_reply { SP.price = 0.1 +. 0.2; size = 3; sold = Some true };
      SP.Quote_reply { SP.price = Float.pi *. 1e17; size = 0; sold = None };
      SP.Quote_reply { SP.price = Float.nan; size = 1; sold = Some false };
      SP.Quote_reply { SP.price = Float.infinity; size = 1; sold = None };
      SP.Error_reply (SP.Bad_index, "index 9999 outside [0, 981)");
      SP.Error_reply (SP.Fault, "");
      SP.Error_reply (SP.Timeout, "idle for more than 60s, closing");
      SP.Error_reply (SP.Overload, "PRICE shed: retry later");
      SP.Error_reply (SP.Overload, "");
      SP.Health_reply SP.Loading;
      SP.Health_reply SP.Serving;
      SP.Health_reply SP.Draining;
      SP.Health_reply SP.Overloaded;
    ]

let test_tag_names_roundtrip () =
  List.iter
    (fun t ->
      match SP.tag_of_name (SP.tag_name t) with
      | Some t' -> Alcotest.(check bool) (SP.tag_name t) true (t = t')
      | None -> Alcotest.failf "tag %s did not roundtrip" (SP.tag_name t))
    [
      SP.Parse; SP.Unknown_verb; SP.Bad_index; SP.Sql; SP.Fault; SP.Timeout;
      SP.Overload; SP.Internal;
    ]

let test_health_state_names_roundtrip () =
  List.iter
    (fun st ->
      match SP.health_state_of_name (SP.health_state_name st) with
      | Some st' ->
          Alcotest.(check bool) (SP.health_state_name st) true (st = st')
      | None ->
          Alcotest.failf "state %s did not roundtrip" (SP.health_state_name st))
    [ SP.Loading; SP.Serving; SP.Draining; SP.Overloaded ];
  match SP.parse_request "health\r" with
  | Ok SP.Health -> ()
  | _ -> Alcotest.fail "HEALTH must parse case-insensitively"

(* --- protocol: property tests ----------------------------------------- *)

let printable_gen =
  QCheck2.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 60))

let request_gen =
  QCheck2.Gen.(
    oneof
      [
        return SP.Ping; return SP.Info; return SP.Stats; return SP.Health;
        return SP.Shutdown;
        map (fun i -> SP.Price i) (int_range (-5) 2000);
        map
          (fun s ->
            let s = String.trim s in
            SP.Quote (if s = "" then "SELECT 1 FROM City" else s))
          printable_gen;
      ])

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"request print/parse roundtrip" ~count:500
    request_gen (fun req ->
      match SP.parse_request (SP.print_request req) with
      | Ok req' -> req = req'
      | Error _ -> false)

let float_gen =
  QCheck2.Gen.(
    oneof
      [
        float;
        oneofl [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity;
                 1e-300; 0.1 +. 0.2 ];
      ])

let prop_quote_price_bits =
  QCheck2.Test.make ~name:"quote price survives the wire bit-for-bit"
    ~count:500
    QCheck2.Gen.(triple float_gen (int_range 0 10000) (opt bool))
    (fun (price, size, sold) ->
      match
        SP.parse_response
          (SP.print_response (SP.Quote_reply { SP.price; size; sold }))
      with
      | Ok (SP.Quote_reply q) ->
          same_bits q.SP.price price && q.SP.size = size && q.SP.sold = sold
      | Ok _ | Error _ -> false)

(* Arbitrary bytes: both parsers must answer (a typed error at worst),
   never raise. Newlines excluded — the server's line splitter already
   guarantees neither parser ever sees one. *)
let garbage_gen =
  QCheck2.Gen.(
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 80)
    |> map (String.map (fun c -> if c = '\n' then ' ' else c)))

(* The survivability wire forms: HEALTH replies and the timeout/
   overloaded error tags must round-trip like every older form. *)
let prop_survivability_forms_roundtrip =
  QCheck2.Test.make ~name:"HEALTH and timeout/overloaded ERR forms roundtrip"
    ~count:300
    QCheck2.Gen.(
      triple
        (oneofl [ SP.Loading; SP.Serving; SP.Draining; SP.Overloaded ])
        (oneofl
           [ SP.Parse; SP.Unknown_verb; SP.Bad_index; SP.Sql; SP.Fault;
             SP.Timeout; SP.Overload; SP.Internal ])
        (map String.trim printable_gen))
    (fun (st, tag, msg) ->
      (match SP.parse_response (SP.print_response (SP.Health_reply st)) with
      | Ok (SP.Health_reply st') -> st = st'
      | Ok _ | Error _ -> false)
      &&
      match SP.parse_response (SP.print_response (SP.Error_reply (tag, msg))) with
      | Ok (SP.Error_reply (tag', msg')) -> tag = tag' && msg = msg'
      | Ok _ | Error _ -> false)

let prop_parsers_never_raise =
  QCheck2.Test.make ~name:"parsers never raise on garbage" ~count:1000
    garbage_gen (fun line ->
      (match SP.parse_request line with Ok _ | Error _ -> true)
      && match SP.parse_response line with Ok _ | Error _ -> true)

(* --- broker: served quotes = one-shot quotes, every family ------------ *)

let test_identity_all_families () =
  let oracle = Lazy.force oracle_instance in
  let h = V.apply ~rng:(Rng.create seed) model oracle.WI.hypergraph in
  let one_shot key =
    (Qp_core.Algorithms.find
       ~lpip_options:(Runner.lpip_options Runner.Quick)
       ~cip_options:(Runner.cip_options Runner.Quick) key)
      .solve h
  in
  List.iter
    (fun key ->
      let b = broker_of key in
      let pricing = one_shot key in
      Array.iteri
        (fun i (e : H.edge) ->
          let served = SB.quote_index b i in
          let expect = P.price pricing e in
          if not (same_bits served.SP.price expect) then
            Alcotest.failf "%s: query %d served %h, one-shot %h" key i
              served.SP.price expect;
          Alcotest.(check bool)
            (Printf.sprintf "%s sold %d" key i)
            true
            (served.SP.sold = Some (P.sells pricing e));
          Alcotest.(check int)
            (Printf.sprintf "%s size %d" key i)
            (Array.length e.H.items) served.SP.size)
        (H.edges h))
    Qp_core.Algorithms.keys

let test_identity_through_handle () =
  (* the full request path — parse, dispatch, print, parse back — must
     preserve the same bits the oracle computes *)
  let b = Lazy.force broker in
  for i = 0 to SB.queries b - 1 do
    let line = SP.print_request (SP.Price i) in
    match SP.parse_response (SP.print_response (SB.handle b line)) with
    | Ok (SP.Quote_reply q) ->
        let expect = SB.quote_index b i in
        Alcotest.(check bool)
          (Printf.sprintf "query %d" i)
          true
          (same_bits q.SP.price expect.SP.price && q.SP.size = expect.SP.size)
    | Ok other ->
        Alcotest.failf "query %d: unexpected %s" i (SP.print_response other)
    | Error msg -> Alcotest.failf "query %d: %s" i msg
  done

(* --- broker: dispatch and error taxonomy ------------------------------ *)

let handle_tag b line =
  match SB.handle b line with
  | SP.Error_reply (t, _) -> Some (SP.tag_name t)
  | _ -> None

let test_handle_dispatch () =
  let b = Lazy.force broker in
  (match SB.handle b "PING" with
  | SP.Pong -> ()
  | r -> Alcotest.failf "PING: %s" (SP.print_response r));
  (match SB.handle b "INFO" with
  | SP.Info_reply i ->
      Alcotest.(check string) "workload" "skewed" i.SP.workload;
      Alcotest.(check string) "pricing" "uip" i.SP.pricing;
      Alcotest.(check int) "queries" (SB.queries b) i.SP.queries;
      Alcotest.(check int) "items" (SB.items b) i.SP.items;
      Alcotest.(check int) "seed" seed i.SP.seed
  | r -> Alcotest.failf "INFO: %s" (SP.print_response r));
  (match SB.handle b "STATS" with
  | SP.Stats_reply kvs ->
      List.iter
        (fun k ->
          Alcotest.(check bool) k true (List.mem_assoc k kvs))
        [
          "client_gone"; "connections"; "errors"; "quotes"; "requests";
          "shed"; "timeouts";
        ]
  | r -> Alcotest.failf "STATS: %s" (SP.print_response r));
  match SB.handle b "SHUTDOWN" with
  | SP.Bye -> ()
  | r -> Alcotest.failf "SHUTDOWN: %s" (SP.print_response r)

let test_handle_errors_are_typed () =
  let b = Lazy.force broker in
  let check line expect =
    Alcotest.(check (option string)) line (Some expect) (handle_tag b line)
  in
  check "PRICE -1" "bad-index";
  check (Printf.sprintf "PRICE %d" (SB.queries b)) "bad-index";
  check "PRICE many" "parse";
  check "" "parse";
  check "EXPLAIN 3" "unknown-verb";
  check "QUOTE SELECT FROM WHERE" "sql";
  check "QUOTE not sql at all" "sql"

let test_handle_quote_sql () =
  let b = Lazy.force broker in
  let sql = "SELECT * FROM City WHERE Population > 1000" in
  match SB.handle b ("QUOTE " ^ sql) with
  | SP.Quote_reply q ->
      Alcotest.(check bool) "sold is None for ad-hoc SQL" true (q.SP.sold = None);
      (match SB.quote_sql b sql with
      | Ok q' ->
          Alcotest.(check bool) "handle = quote_sql" true
            (same_bits q.SP.price q'.SP.price && q.SP.size = q'.SP.size)
      | Error msg -> Alcotest.failf "quote_sql: %s" msg);
      Alcotest.(check bool) "price finite and non-negative" true
        (Float.is_finite q.SP.price && q.SP.price >= 0.0)
  | r -> Alcotest.failf "QUOTE: %s" (SP.print_response r)

(* Admission control at the dispatch layer: expensive verbs shed with a
   typed reply, cheap verbs still answered, shed not counted as an
   error. *)
let test_handle_overloaded_sheds () =
  let b = broker_of "ubp" in
  (match SB.handle ~overloaded:true b "PRICE 0" with
  | SP.Error_reply (SP.Overload, _) -> ()
  | r -> Alcotest.failf "PRICE under overload: %s" (SP.print_response r));
  (match
     SB.handle ~overloaded:true b
       "QUOTE SELECT * FROM City WHERE Population > 1000"
   with
  | SP.Error_reply (SP.Overload, _) -> ()
  | r -> Alcotest.failf "QUOTE under overload: %s" (SP.print_response r));
  (match SB.handle ~overloaded:true b "PING" with
  | SP.Pong -> ()
  | r -> Alcotest.failf "PING must answer under overload: %s"
           (SP.print_response r));
  (match SB.handle ~overloaded:true b "METRICS" with
  | SP.Metrics_reply _ -> ()
  | r -> Alcotest.failf "METRICS must answer under overload: %s"
           (SP.print_response r));
  (match SB.handle ~overloaded:true b "HEALTH" with
  | SP.Health_reply SP.Overloaded -> ()
  | r -> Alcotest.failf "HEALTH under overload: %s" (SP.print_response r));
  (match SB.handle b "HEALTH" with
  | SP.Health_reply SP.Serving -> ()
  | r -> Alcotest.failf "HEALTH in steady state: %s" (SP.print_response r));
  match SB.handle b "STATS" with
  | SP.Stats_reply kvs ->
      Alcotest.(check int) "two quotes shed" 2 (List.assoc "shed" kvs);
      Alcotest.(check int) "shed is not an error" 0 (List.assoc "errors" kvs)
  | r -> Alcotest.failf "STATS: %s" (SP.print_response r)

let prop_handle_never_raises =
  QCheck2.Test.make ~name:"handle answers any garbage with a typed reply"
    ~count:300 garbage_gen (fun line ->
      match SB.handle (Lazy.force broker) line with
      | SP.Pong | SP.Bye | SP.Info_reply _ | SP.Stats_reply _
      | SP.Metrics_reply _ | SP.Health_reply _ | SP.Quote_reply _
      | SP.Error_reply _ ->
          true)

(* --- snapshots: save -> load -> identical quotes ---------------------- *)

let snap_config pricing =
  {
    Snap.workload = "skewed";
    scale = WI.Tiny;
    support = Some 60;
    seed;
    model;
    pricing;
    profile = Runner.Quick;
  }

let with_snapshot_file f =
  let file = Filename.temp_file "qpsnap-test" ".qps" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () -> f file)

(* The crash-recovery contract, per pricing family: a restored broker
   quotes the same bits as the one that saved the snapshot, both
   through the oracle accessor and through the full request path. *)
let test_snapshot_roundtrip_all_families () =
  List.iter
    (fun key ->
      let b = broker_of key in
      with_snapshot_file @@ fun file ->
      (match SB.save_snapshot ~file ~config:(snap_config key) b with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: save: %s" key msg);
      match SB.load_snapshot ~file (snap_config key) with
      | Error e ->
          Alcotest.failf "%s: load: %s" key (Snap.describe_load_error e)
      | Ok b' ->
          Alcotest.(check int) (key ^ ": queries survive") (SB.queries b)
            (SB.queries b');
          Alcotest.(check int) (key ^ ": items survive") (SB.items b)
            (SB.items b');
          for i = 0 to SB.queries b - 1 do
            let a = SB.quote_index b i and r = SB.quote_index b' i in
            if not (same_bits a.SP.price r.SP.price) then
              Alcotest.failf "%s: query %d drifted across the snapshot" key i;
            if a.SP.size <> r.SP.size || a.SP.sold <> r.SP.sold then
              Alcotest.failf "%s: query %d metadata drifted" key i
          done;
          (match (SB.handle b "PRICE 0", SB.handle b' "PRICE 0") with
          | SP.Quote_reply a, SP.Quote_reply r ->
              Alcotest.(check bool)
                (key ^ ": identical through handle")
                true (same_bits a.SP.price r.SP.price)
          | _ -> Alcotest.failf "%s: PRICE 0 through handle" key))
    Qp_core.Algorithms.keys

let slurp file = In_channel.with_open_bin file In_channel.input_all

let spew file s =
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc s)

(* Every refusal is typed, checked before unmarshal, and leaves the
   caller free to fall back to recompute. *)
let test_snapshot_refusals () =
  let b = broker_of "ubp" in
  with_snapshot_file @@ fun file ->
  (match SB.save_snapshot ~file ~config:(snap_config "ubp") b with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save: %s" msg);
  let pristine = slurp file in
  (* stale: built from other parameters (different seed) *)
  (match
     SB.load_snapshot ~file { (snap_config "ubp") with Snap.seed = seed + 1 }
   with
  | Error (Snap.Stale _) -> ()
  | Error e -> Alcotest.failf "stale: %s" (Snap.describe_load_error e)
  | Ok _ -> Alcotest.fail "stale snapshot must be refused");
  (* version mismatch: refused on the header, before any unmarshal *)
  let nl = String.index pristine '\n' in
  spew file
    (Printf.sprintf "%s 999%s" Snap.magic
       (String.sub pristine nl (String.length pristine - nl)));
  (match SB.load_snapshot ~file (snap_config "ubp") with
  | Error (Snap.Version_mismatch { found = 999; _ }) -> ()
  | Error e -> Alcotest.failf "version: %s" (Snap.describe_load_error e)
  | Ok _ -> Alcotest.fail "foreign format version must be refused");
  (* corrupt: one flipped payload byte trips the digest *)
  let mutated = Bytes.of_string pristine in
  let last = Bytes.length mutated - 1 in
  Bytes.set mutated last (Char.chr (Char.code (Bytes.get mutated last) lxor 1));
  spew file (Bytes.to_string mutated);
  (match SB.load_snapshot ~file (snap_config "ubp") with
  | Error (Snap.Corrupt _) -> ()
  | Error e -> Alcotest.failf "corrupt: %s" (Snap.describe_load_error e)
  | Ok _ -> Alcotest.fail "corrupt snapshot must be refused");
  (* trailing garbage is also corruption, not silently ignored *)
  spew file (pristine ^ "x");
  (match SB.load_snapshot ~file (snap_config "ubp") with
  | Error (Snap.Corrupt _) -> ()
  | Error e -> Alcotest.failf "trailing: %s" (Snap.describe_load_error e)
  | Ok _ -> Alcotest.fail "trailing bytes must be refused");
  (* not a snapshot at all *)
  spew file "definitely not a snapshot\n";
  (match SB.load_snapshot ~file (snap_config "ubp") with
  | Error Snap.Bad_magic -> ()
  | Error e -> Alcotest.failf "magic: %s" (Snap.describe_load_error e)
  | Ok _ -> Alcotest.fail "bad magic must be refused");
  (* missing file *)
  (match SB.load_snapshot ~file:(file ^ ".does-not-exist") (snap_config "ubp") with
  | Error (Snap.Io _) -> ()
  | Error e -> Alcotest.failf "io: %s" (Snap.describe_load_error e)
  | Ok _ -> Alcotest.fail "missing file must be Io");
  (* and the pristine bytes still load after all that *)
  spew file pristine;
  match SB.load_snapshot ~file (snap_config "ubp") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pristine reload: %s" (Snap.describe_load_error e)

let test_snapshot_fault_sites () =
  let b = broker_of "ubp" in
  with_snapshot_file @@ fun file ->
  (with_faults "serve.snapshot.write:fail:p=1" @@ fun () ->
   match SB.save_snapshot ~file ~config:(snap_config "ubp") b with
   | Error msg ->
       Alcotest.(check bool) "write fault is reported" true
         (String.length msg > 0)
   | Ok () -> Alcotest.fail "armed write site must fail the save");
  (match SB.save_snapshot ~file ~config:(snap_config "ubp") b with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "clean save: %s" msg);
  (with_faults "serve.snapshot.read:fail:p=1" @@ fun () ->
   match SB.load_snapshot ~file (snap_config "ubp") with
   | Error (Snap.Faulted _) -> ()
   | Error e -> Alcotest.failf "read fault: %s" (Snap.describe_load_error e)
   | Ok _ -> Alcotest.fail "armed read site must refuse the load");
  match SB.load_snapshot ~file (snap_config "ubp") with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "load after disarm: %s" (Snap.describe_load_error e)

(* --- metrics: the scrapeable exposition ------------------------------- *)

module M = Qp_serve.Metrics

let test_metrics_protocol () =
  (match SP.parse_request "METRICS" with
  | Ok SP.Metrics -> ()
  | _ -> Alcotest.fail "METRICS must parse");
  Alcotest.(check string) "METRICS prints" "METRICS"
    (SP.print_request SP.Metrics);
  let printed = SP.print_response (SP.Metrics_reply "a 1\nb 2\n") in
  let lines = String.split_on_char '\n' (String.trim printed) in
  Alcotest.(check string) "exposition framed by the terminator"
    SP.metrics_terminator
    (List.nth lines (List.length lines - 1));
  Alcotest.(check bool) "body precedes the terminator" true
    (List.mem "a 1" lines && List.mem "b 2" lines)

(* The broker counts a request once its response is built, so the
   exposition a METRICS request returns already includes every earlier
   request but not itself — its _counts equal the counters a concurrent
   STATS would have seen just before the scrape. *)
let test_metrics_counts_match_stats () =
  let b = broker_of "ubp" in
  ignore (SB.handle b "PING");
  for i = 0 to 9 do
    ignore (SB.handle b (Printf.sprintf "PRICE %d" i))
  done;
  ignore (SB.handle b "PRICE -1");
  (* typed error *)
  let body =
    match SB.handle b "METRICS" with
    | SP.Metrics_reply body -> body
    | r -> Alcotest.failf "METRICS: %s" (SP.print_response r)
  in
  let samples =
    match M.parse body with
    | Ok s -> s
    | Error msg -> Alcotest.failf "exposition did not parse: %s" msg
  in
  let counter name =
    match M.find samples name with
    | Some v -> int_of_float v
    | None -> Alcotest.failf "missing sample %s" name
  in
  Alcotest.(check int) "requests_total counts completed requests" 12
    (counter "qp_serve_requests_total");
  Alcotest.(check int) "quotes_total" 10 (counter "qp_serve_quotes_total");
  Alcotest.(check int) "errors_total" 1 (counter "qp_serve_errors_total");
  (* histogram _counts agree with the counters *)
  (match M.histogram_count samples "qp_serve_request_seconds" with
  | Some c -> Alcotest.(check int) "request histogram _count" 12
                (int_of_float c)
  | None -> Alcotest.fail "missing qp_serve_request_seconds histogram");
  (match M.histogram_count samples "qp_serve_quote_seconds" with
  | Some c -> Alcotest.(check int) "quote histogram _count" 10 (int_of_float c)
  | None -> Alcotest.fail "missing qp_serve_quote_seconds histogram");
  (* the following STATS sees one more completed request: the METRICS
     request itself finished in between *)
  match SB.handle b "STATS" with
  | SP.Stats_reply kvs ->
      Alcotest.(check int) "STATS requests = exposition + the scrape" 13
        (List.assoc "requests" kvs);
      Alcotest.(check int) "STATS quotes agree" 10 (List.assoc "quotes" kvs);
      Alcotest.(check int) "STATS errors agree" 1 (List.assoc "errors" kvs);
      let p50 = List.assoc "p50_ns" kvs
      and p95 = List.assoc "p95_ns" kvs
      and p99 = List.assoc "p99_ns" kvs in
      Alcotest.(check bool) "latency quantiles ordered" true
        (p50 <= p95 && p95 <= p99)
  | r -> Alcotest.failf "STATS: %s" (SP.print_response r)

let test_metrics_render_parse_roundtrip () =
  let h = Qp_obs.Hist.create () in
  Qp_obs.Hist.record h 1_000;
  Qp_obs.Hist.record h 2_000_000;
  let metrics =
    [
      M.Counter { name = "qp_t_total"; help = "a counter"; value = 7.0 };
      M.Gauge { name = "qp_t_depth"; help = "a gauge"; value = 3.5 };
      M.Histogram
        { name = "qp_t_seconds"; help = "a histogram";
          hist = Qp_obs.Hist.snapshot h };
    ]
  in
  match M.parse (M.render metrics) with
  | Error msg -> Alcotest.failf "rendered exposition rejected: %s" msg
  | Ok samples ->
      Alcotest.(check (option (float 1e-9))) "counter survives" (Some 7.0)
        (M.find samples "qp_t_total");
      Alcotest.(check (option (float 1e-9))) "gauge survives" (Some 3.5)
        (M.find samples "qp_t_depth");
      Alcotest.(check (option (float 1e-9))) "histogram count" (Some 2.0)
        (M.histogram_count samples "qp_t_seconds");
      (match M.find samples ~labels:[ ("le", "+Inf") ] "qp_t_seconds_bucket" with
      | Some v -> Alcotest.(check (float 1e-9)) "+Inf closes the series" 2.0 v
      | None -> Alcotest.fail "missing +Inf bucket");
      match M.histogram_quantile samples "qp_t_seconds" 99.0 with
      | Some q -> Alcotest.(check bool) "p99 covers the slow observation" true
                    (q >= 0.002)
      | None -> Alcotest.fail "quantile over parsed buckets"

(* --- sockets: a live end-to-end session ------------------------------- *)

let temp_listen tag =
  SS.Unix_socket
    (Filename.concat (Filename.get_temp_dir_name ())
       (Printf.sprintf "qpserve-test-%s-%d.sock" tag (Unix.getpid ())))

(* Run [session client] against a live server; should_stop backstops
   SHUTDOWN so a fault-eaten BYE cannot hang the test. *)
let with_server ?idle_timeout ?max_conns tag b session =
  let listen = temp_listen tag in
  let finished = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        SS.serve ?idle_timeout ?max_conns
          ~should_stop:(fun () -> Atomic.get finished)
          listen b)
  in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set finished true;
        Domain.join server)
      (fun () ->
        let c = SS.connect listen in
        Fun.protect ~finally:(fun () -> SS.close_client c) (fun () -> session c))
  in
  result

let test_socket_session () =
  let b = broker_of "ubp" in
  with_server "session" b @@ fun c ->
  (match SS.call c SP.Ping with
  | Ok SP.Pong -> ()
  | r -> Alcotest.failf "ping: %s" (match r with
      | Ok resp -> SP.print_response resp
      | Error m -> m));
  (match SS.call c SP.Info with
  | Ok (SP.Info_reply i) ->
      Alcotest.(check string) "pricing over the wire" "ubp" i.SP.pricing
  | _ -> Alcotest.fail "info");
  for i = 0 to min 24 (SB.queries b - 1) do
    match SS.call c (SP.Price i) with
    | Ok (SP.Quote_reply q) ->
        let expect = SB.quote_index b i in
        Alcotest.(check bool)
          (Printf.sprintf "socket quote %d" i)
          true
          (same_bits q.SP.price expect.SP.price
          && q.SP.size = expect.SP.size && q.SP.sold = expect.SP.sold)
    | _ -> Alcotest.failf "price %d failed over the socket" i
  done;
  (match SS.call c (SP.Price 999999) with
  | Ok (SP.Error_reply (SP.Bad_index, _)) -> ()
  | _ -> Alcotest.fail "bad index must come back typed");
  (match SS.call c (SP.Quote "SELECT nonsense FROM nowhere") with
  | Ok (SP.Error_reply (SP.Sql, _)) -> ()
  | _ -> Alcotest.fail "sql error must come back typed");
  (match SS.call c (SP.Quote "SELECT * FROM City WHERE Population > 1000") with
  | Ok (SP.Quote_reply q) ->
      Alcotest.(check bool) "ad-hoc quote has no sold flag" true
        (q.SP.sold = None)
  | _ -> Alcotest.fail "ad-hoc quote failed");
  match SS.call c SP.Shutdown with
  | Ok SP.Bye -> ()
  | _ -> Alcotest.fail "shutdown must reply BYE"

let test_socket_two_clients () =
  (* the second client's view must be unaffected by the first one's
     traffic: quotes are pure reads of the standing state *)
  let b = broker_of "ubp" in
  let listen = temp_listen "two" in
  let finished = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        SS.serve ~should_stop:(fun () -> Atomic.get finished) listen b)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join server)
    (fun () ->
      let c1 = SS.connect listen in
      let c2 = SS.connect listen in
      Fun.protect
        ~finally:(fun () ->
          SS.close_client c1;
          SS.close_client c2)
        (fun () ->
          let q1 = SS.call c1 (SP.Price 0) in
          let q2 = SS.call c2 (SP.Price 0) in
          match (q1, q2) with
          | Ok (SP.Quote_reply a), Ok (SP.Quote_reply b) ->
              Alcotest.(check bool) "same quote for both clients" true
                (same_bits a.SP.price b.SP.price)
          | _ -> Alcotest.fail "both clients must be served"))

let test_socket_scrape () =
  let b = broker_of "ubp" in
  with_server "scrape" b @@ fun c ->
  for i = 0 to 4 do
    match SS.call c (SP.Price i) with
    | Ok (SP.Quote_reply _) -> ()
    | _ -> Alcotest.failf "price %d failed before the scrape" i
  done;
  let body =
    match SS.scrape c with
    | Ok body -> body
    | Error msg -> Alcotest.failf "scrape: %s" msg
  in
  let samples =
    match M.parse body with
    | Ok s -> s
    | Error msg -> Alcotest.failf "scraped exposition did not parse: %s" msg
  in
  (match M.find samples "qp_serve_quotes_total" with
  | Some v -> Alcotest.(check (float 1e-9)) "quotes over the wire" 5.0 v
  | None -> Alcotest.fail "missing qp_serve_quotes_total");
  (* the multi-line reply must leave the stream framed: the very next
     one-line call still works *)
  match SS.call c SP.Stats with
  | Ok (SP.Stats_reply kvs) ->
      Alcotest.(check int) "STATS right after a scrape" 5
        (List.assoc "quotes" kvs)
  | _ -> Alcotest.fail "STATS after scrape must still round-trip"

(* --- sockets: survivability ------------------------------------------- *)

(* With max_conns 0 every connection is over the admission mark: quotes
   shed with a typed reply while the cheap verbs keep answering — a
   probe sees a live-but-saturated broker, not a dead one. *)
let test_socket_overload_sheds () =
  let b = broker_of "ubp" in
  with_server ~max_conns:0 "overload" b @@ fun c ->
  (match SS.call c (SP.Price 0) with
  | Ok (SP.Error_reply (SP.Overload, _)) -> ()
  | Ok r -> Alcotest.failf "PRICE: %s" (SP.print_response r)
  | Error msg -> Alcotest.failf "PRICE: %s" msg);
  (match SS.call c SP.Ping with
  | Ok SP.Pong -> ()
  | _ -> Alcotest.fail "PING must answer while overloaded");
  (match SS.call c SP.Health with
  | Ok (SP.Health_reply SP.Overloaded) -> ()
  | Ok r -> Alcotest.failf "HEALTH: %s" (SP.print_response r)
  | Error msg -> Alcotest.failf "HEALTH: %s" msg);
  (match SS.scrape c with
  | Ok body -> (
      match M.parse body with
      | Ok samples -> (
          match M.find samples "qp_serve_shed_total" with
          | Some v ->
              Alcotest.(check bool) "shed counted in METRICS" true (v >= 1.0)
          | None -> Alcotest.fail "missing qp_serve_shed_total")
      | Error msg -> Alcotest.failf "exposition: %s" msg)
  | Error msg -> Alcotest.failf "METRICS must answer while overloaded: %s" msg);
  match SS.call c SP.Stats with
  | Ok (SP.Stats_reply kvs) ->
      Alcotest.(check bool) "shed in STATS" true (List.assoc "shed" kvs >= 1);
      Alcotest.(check int) "shed is not an error" 0 (List.assoc "errors" kvs)
  | _ -> Alcotest.fail "STATS must answer while overloaded"

let raw_connect path =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when n > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.02;
        go (n - 1)
  in
  go 100

(* A connection that goes quiet gets one typed ERR timeout and is then
   closed — the slow-loris defence. *)
let test_socket_idle_timeout_reaps () =
  let b = broker_of "ubp" in
  let listen = temp_listen "idle" in
  let path = match listen with SS.Unix_socket p -> p | SS.Tcp _ -> assert false in
  let finished = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        SS.serve ~idle_timeout:0.08
          ~should_stop:(fun () -> Atomic.get finished)
          listen b)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join server)
  @@ fun () ->
  let fd = raw_connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ic = Unix.in_channel_of_descr fd in
  (* send nothing; the deadline must push a typed farewell and close *)
  (match input_line ic with
  | line -> (
      match SP.parse_response line with
      | Ok (SP.Error_reply (SP.Timeout, _)) -> ()
      | Ok r -> Alcotest.failf "expected ERR timeout, got %s"
                  (SP.print_response r)
      | Error msg -> Alcotest.failf "unparseable farewell %S: %s" line msg)
  | exception End_of_file ->
      Alcotest.fail "connection closed without the typed ERR timeout");
  (match input_line ic with
  | _ -> Alcotest.fail "connection must close after the timeout reply"
  | exception End_of_file -> ());
  (* the broker survived the reap and still serves fresh connections *)
  let c = SS.connect listen in
  Fun.protect ~finally:(fun () -> SS.close_client c) @@ fun () ->
  match SS.call c SP.Stats with
  | Ok (SP.Stats_reply kvs) ->
      Alcotest.(check bool) "timeout counted" true
        (List.assoc "timeouts" kvs >= 1)
  | _ -> Alcotest.fail "STATS after a reaped connection"

(* Regression (satellite): a client killed mid-QUOTE — request sent,
   socket gone before the reply lands — must bump client_gone and must
   not tear down the accept loop. *)
let test_socket_client_gone_mid_quote () =
  let b = broker_of "ubp" in
  let listen = temp_listen "gone" in
  let path = match listen with SS.Unix_socket p -> p | SS.Tcp _ -> assert false in
  let finished = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        SS.serve ~should_stop:(fun () -> Atomic.get finished) listen b)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join server)
  @@ fun () ->
  let control = SS.connect listen in
  Fun.protect ~finally:(fun () -> SS.close_client control) @@ fun () ->
  let client_gone () =
    match SS.call control SP.Stats with
    | Ok (SP.Stats_reply kvs) -> List.assoc "client_gone" kvs
    | Ok r -> Alcotest.failf "STATS: %s" (SP.print_response r)
    | Error msg -> Alcotest.failf "STATS: %s" msg
  in
  let attempts = ref 0 in
  while client_gone () = 0 && !attempts < 50 do
    incr attempts;
    let fd = raw_connect path in
    let line = "QUOTE SELECT * FROM City WHERE Population > 1000\n" in
    ignore (Unix.write_substring fd line 0 (String.length line));
    (* vanish before the reply can be delivered *)
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Unix.sleepf 0.02
  done;
  Alcotest.(check bool) "client_gone counted" true (client_gone () > 0);
  (* the accept loop survived: the standing connection still quotes *)
  match SS.call control (SP.Price 0) with
  | Ok (SP.Quote_reply _) -> ()
  | _ -> Alcotest.fail "broker must keep serving after a vanished client"

(* --- faults: the loop completes with typed errors --------------------- *)

let test_faulted_requests_are_typed_and_deterministic () =
  let b = Lazy.force broker in
  let pass () =
    List.init (SB.queries b) (fun i ->
        match SB.handle b (Printf.sprintf "PRICE %d" i) with
        | SP.Quote_reply q ->
            let expect = SB.quote_index b i in
            if same_bits q.SP.price expect.SP.price then `Ok
            else `Corrupt
        | SP.Error_reply (SP.Fault, _) -> `Fault
        | _ -> `Corrupt)
  in
  with_faults "serve.request:fail:p=0.4:seed=3" @@ fun () ->
  let a = pass () in
  let faults = List.length (List.filter (fun o -> o = `Fault) a) in
  let corrupt = List.length (List.filter (fun o -> o = `Corrupt) a) in
  Alcotest.(check int) "no untyped failures" 0 corrupt;
  Alcotest.(check bool) "some faults fired" true (faults > 0);
  Alcotest.(check bool) "some requests survived" true
    (faults < SB.queries b);
  (* the schedule is a pure function of (seed, site, key): replaying
     the same requests fires the same faults *)
  Alcotest.(check bool) "schedule replays exactly" true (pass () = a)

let test_faulted_parse_site () =
  let b = Lazy.force broker in
  with_faults "serve.parse:fail:p=1:seed=1" @@ fun () ->
  match SB.handle b "PING" with
  | SP.Error_reply (SP.Parse, _) -> ()
  | r -> Alcotest.failf "expected a parse fault, got %s" (SP.print_response r)

let test_faulted_nan_poisons_price () =
  let b = Lazy.force broker in
  with_faults "serve.request:nan:p=1:seed=1" @@ fun () ->
  match SB.handle b "PRICE 0" with
  | SP.Quote_reply q ->
      Alcotest.(check bool) "price is poisoned, not dropped" true
        (Float.is_nan q.SP.price)
  | r -> Alcotest.failf "expected a nan quote, got %s" (SP.print_response r)

let test_faulted_socket_loop_completes () =
  let b = broker_of "ubp" in
  with_faults "serve.request:fail:p=0.5:seed=11" @@ fun () ->
  with_server "chaos" b @@ fun c ->
  let ok = ref 0 and faulted = ref 0 in
  for i = 0 to 39 do
    match SS.call c (SP.Price (i mod SB.queries b)) with
    | Ok (SP.Quote_reply _) -> incr ok
    | Ok (SP.Error_reply (SP.Fault, _)) -> incr faulted
    | Ok r -> Alcotest.failf "request %d: %s" i (SP.print_response r)
    | Error msg -> Alcotest.failf "request %d dropped: %s" i msg
  done;
  Alcotest.(check int) "every request answered" 40 (!ok + !faulted);
  Alcotest.(check bool) "faults actually fired" true (!faulted > 0)

(* A QUOTE naming an unknown column or summing a string is the client's
   SQL error: both reply [ERR sql] (never [ERR internal]) and count as
   errors in STATS. *)
let test_quote_compile_errors_are_sql () =
  let b = Lazy.force broker in
  let errors () =
    match SB.handle b "STATS" with
    | SP.Stats_reply kvs -> List.assoc "errors" kvs
    | r -> Alcotest.failf "STATS: %s" (SP.print_response r)
  in
  let before = errors () in
  List.iter
    (fun line ->
      Alcotest.(check (option string)) line (Some "sql") (handle_tag b line))
    [ "QUOTE SELECT Foo FROM Country"; "QUOTE SELECT SUM(Name) FROM Country" ];
  Alcotest.(check int) "errors rise by 2" (before + 2) (errors ())

(* --- one broker: the session broker is the serving broker ------------- *)

module Market = Qp_market.Broker

(* One Tiny instance per workload at its default support, shared by the
   tests below. *)
let tiny_instances =
  lazy (List.map (fun key -> WI.build key ~scale:WI.Tiny ~seed ()) WI.keys)

let lpip_broker inst = SB.of_instance ~model ~pricing:"lpip" ~seed inst

(* A market session walked step by step — create, register the drawn
   valuations, build, price — lands on the serving broker's state: the
   same support, the same hyperedges and the same prices. *)
let test_session_equals_serving () =
  List.iter
    (fun (inst : WI.t) ->
      let key = inst.key in
      let served = lpip_broker inst in
      let session =
        Market.create ~seed ~support_size:(Array.length inst.deltas) inst.db
      in
      let vals = V.draw ~rng:(Rng.create seed) model inst.hypergraph in
      List.iteri
        (fun i q -> Market.add_buyer session ~valuation:vals.(i) q)
        inst.queries;
      Market.build session;
      let pricing =
        Market.price session ~lpip_options:(Runner.lpip_options Runner.Quick)
          ~cip_options:(Runner.cip_options Runner.Quick) ~algorithm:"lpip"
      in
      Alcotest.(check bool)
        (key ^ ": same support") true
        (Market.support session = Market.support (SB.market served));
      let a = H.edges (Market.hypergraph session)
      and b = H.edges (Market.hypergraph (SB.market served)) in
      Alcotest.(check int) (key ^ ": same edge count") (Array.length a)
        (Array.length b);
      Array.iteri
        (fun i (e : H.edge) ->
          let f = b.(i) in
          if
            e.H.name <> f.H.name || e.H.items <> f.H.items
            || not (same_bits e.H.valuation f.H.valuation)
          then Alcotest.failf "%s: hyperedge %d differs" key i;
          if not (same_bits (P.price pricing e) (SB.quote_index served i).SP.price)
          then Alcotest.failf "%s: price of query %d differs" key i)
        a)
    (Lazy.force tiny_instances)

(* QUOTE of a workload query's own SQL is PRICE of its index, in price
   bits and conflict-set size, on every workload query — live and after
   a snapshot round trip. *)
let test_quote_sql_equals_price () =
  let check_broker label b (inst : WI.t) =
    List.iteri
      (fun i q ->
        let line = SP.print_request (SP.Quote (Qp_relational.Query.to_sql q)) in
        match (SB.handle b line, SB.handle b (SP.print_request (SP.Price i))) with
        | SP.Quote_reply a, SP.Quote_reply p ->
            if not (same_bits a.SP.price p.SP.price && a.SP.size = p.SP.size) then
              Alcotest.failf "%s: QUOTE %d (%h, %d) <> PRICE (%h, %d)" label i
                a.SP.price a.SP.size p.SP.price p.SP.size
        | a, p ->
            Alcotest.failf "%s: query %d: %s / %s" label i (SP.print_response a)
              (SP.print_response p))
      inst.queries
  in
  List.iter
    (fun (inst : WI.t) ->
      let key = inst.key in
      Alcotest.(check int) (key ^ ": no dropped query") 0
        (List.length inst.build_stats.failed_queries);
      let b = lpip_broker inst in
      check_broker (key ^ " live") b inst;
      let config =
        { (snap_config "lpip") with Snap.workload = key; support = None }
      in
      with_snapshot_file @@ fun file ->
      (match SB.save_snapshot ~file ~config b with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: save: %s" key msg);
      match SB.load_snapshot ~file config with
      | Ok b' -> check_broker (key ^ " restored") b' inst
      | Error e -> Alcotest.failf "%s: load: %s" key (Snap.describe_load_error e))
    (Lazy.force tiny_instances)

(* Files written under the previous payload layouts are refused on
   their header: format 4 carried the workload instance and a second
   hypergraph, format 5 the buyer queries and no columnar images. *)
let test_snapshot_v4_refused () =
  let b = broker_of "ubp" in
  with_snapshot_file @@ fun file ->
  (match SB.save_snapshot ~file ~config:(snap_config "ubp") b with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save: %s" msg);
  let pristine = slurp file in
  let nl = String.index pristine '\n' in
  List.iter
    (fun old ->
      spew file
        (Printf.sprintf "%s %d%s" Snap.magic old
           (String.sub pristine nl (String.length pristine - nl)));
      match SB.load_snapshot ~file (snap_config "ubp") with
      | Error (Snap.Version_mismatch { found; expected })
        when found = old && expected = Snap.format_version -> ()
      | Error e -> Alcotest.failf "v%d: %s" old (Snap.describe_load_error e)
      | Ok _ -> Alcotest.failf "a format-%d snapshot must be refused" old)
    [ 4; 5 ]

let suite =
  ( "serve",
    [
      Alcotest.test_case "protocol: request roundtrip" `Quick
        test_request_roundtrip;
      Alcotest.test_case "protocol: lenient forms" `Quick
        test_request_lenient_forms;
      Alcotest.test_case "protocol: request errors" `Quick test_request_errors;
      Alcotest.test_case "protocol: response roundtrip" `Quick
        test_response_roundtrip;
      Alcotest.test_case "protocol: tag names" `Quick test_tag_names_roundtrip;
      Alcotest.test_case "protocol: health states" `Quick
        test_health_state_names_roundtrip;
      QCheck_alcotest.to_alcotest prop_request_roundtrip;
      QCheck_alcotest.to_alcotest prop_quote_price_bits;
      QCheck_alcotest.to_alcotest prop_survivability_forms_roundtrip;
      QCheck_alcotest.to_alcotest prop_parsers_never_raise;
      Alcotest.test_case "identity: all pricing families" `Slow
        test_identity_all_families;
      Alcotest.test_case "identity: through handle" `Quick
        test_identity_through_handle;
      Alcotest.test_case "broker: dispatch" `Quick test_handle_dispatch;
      Alcotest.test_case "broker: typed errors" `Quick
        test_handle_errors_are_typed;
      Alcotest.test_case "broker: ad-hoc SQL quote" `Quick
        test_handle_quote_sql;
      Alcotest.test_case "broker: overload sheds quotes" `Quick
        test_handle_overloaded_sheds;
      QCheck_alcotest.to_alcotest prop_handle_never_raises;
      Alcotest.test_case "snapshot: roundtrip, all pricing families" `Slow
        test_snapshot_roundtrip_all_families;
      Alcotest.test_case "snapshot: typed refusals" `Quick
        test_snapshot_refusals;
      Alcotest.test_case "snapshot: fault sites" `Quick
        test_snapshot_fault_sites;
      Alcotest.test_case "metrics: protocol framing" `Quick
        test_metrics_protocol;
      Alcotest.test_case "metrics: counts match STATS" `Quick
        test_metrics_counts_match_stats;
      Alcotest.test_case "metrics: render/parse roundtrip" `Quick
        test_metrics_render_parse_roundtrip;
      Alcotest.test_case "socket: end-to-end session" `Quick
        test_socket_session;
      Alcotest.test_case "socket: two clients" `Quick test_socket_two_clients;
      Alcotest.test_case "socket: METRICS scrape" `Quick test_socket_scrape;
      Alcotest.test_case "socket: overload sheds, cheap verbs answer" `Quick
        test_socket_overload_sheds;
      Alcotest.test_case "socket: idle timeout reaps" `Quick
        test_socket_idle_timeout_reaps;
      Alcotest.test_case "socket: client gone mid-QUOTE" `Quick
        test_socket_client_gone_mid_quote;
      Alcotest.test_case "fault: typed + deterministic" `Quick
        test_faulted_requests_are_typed_and_deterministic;
      Alcotest.test_case "fault: parse site" `Quick test_faulted_parse_site;
      Alcotest.test_case "fault: nan poisons the price" `Quick
        test_faulted_nan_poisons_price;
      Alcotest.test_case "fault: socket loop completes" `Quick
        test_faulted_socket_loop_completes;
      Alcotest.test_case "broker: QUOTE compile errors are sql" `Quick
        test_quote_compile_errors_are_sql;
      Alcotest.test_case "one broker: session = serving, every workload" `Slow
        test_session_equals_serving;
      Alcotest.test_case "one broker: QUOTE sql = PRICE i, live + restored" `Slow
        test_quote_sql_equals_price;
      Alcotest.test_case "snapshot: format-4 file refused" `Quick
        test_snapshot_v4_refused;
    ] )
