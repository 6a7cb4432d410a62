(* Tests for support sampling, conflict sets, and the broker. *)

open Fixtures
module Support = Qp_market.Support
module Conflict = Qp_market.Conflict
module Broker = Qp_market.Broker
module Delta = Qp_relational.Delta
module Result_set = Qp_relational.Result_set
module Rng = Qp_util.Rng
module H = Qp_core.Hypergraph

(* --- support --- *)

let test_support_distinct_non_noop () =
  let rng = Rng.create 1 in
  let deltas = Support.generate ~rng db ~n:40 in
  Alcotest.(check int) "count" 40 (Array.length deltas);
  let keys =
    Array.to_list deltas |> List.map (Format.asprintf "%a" Delta.pp)
  in
  Alcotest.(check int) "distinct" 40 (List.length (List.sort_uniq compare keys));
  Array.iter
    (fun d -> Alcotest.(check bool) "non-noop" false (Delta.is_noop db d))
    deltas

let test_support_deterministic () =
  let d1 = Support.generate ~rng:(Rng.create 5) db ~n:20 in
  let d2 = Support.generate ~rng:(Rng.create 5) db ~n:20 in
  Alcotest.(check bool) "same" true (d1 = d2)

let test_support_applies () =
  let rng = Rng.create 2 in
  let deltas = Support.generate ~rng db ~n:30 in
  Array.iter
    (fun d ->
      let db' = Delta.apply db d in
      Alcotest.(check bool) "well-formed" true (Database.total_rows db' >= 8))
    deltas

let test_support_too_many () =
  (* a single-cell database cannot yield thousands of distinct deltas *)
  let tiny =
    Database.make
      [ Relation.make users_schema [ user 1 "A" "m" 18 ] ]
  in
  match Support.generate ~rng:(Rng.create 1) tiny ~n:100_000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected exhaustion failure"

let workload_queries =
  [
    Query.make ~name:"w1" ~from:[ "Users" ]
      ~where:Expr.(eq (col "gender") (str "f"))
      [ Query.Field (Expr.col "name", "name") ];
    Query.make ~name:"w2" ~from:[ "Orders" ]
      ~where:Expr.(eq (col "item") (str "book"))
      [ Query.Aggregate (Query.Sum (Expr.col "amount"), "s") ];
  ]

let test_support_query_aware () =
  let rng = Rng.create 3 in
  let deltas =
    Support.generate_query_aware ~rng ~queries:workload_queries db ~n:40
  in
  Alcotest.(check int) "count" 40 (Array.length deltas);
  let keys = Array.to_list deltas |> List.map (Format.asprintf "%a" Delta.pp) in
  Alcotest.(check int) "distinct" 40 (List.length (List.sort_uniq compare keys))

let test_support_query_aware_flips_empty_footprint () =
  (* no user is named "Zed": the targeted sampler must flip some name
     cell to "Zed" so the query's conflict set is non-empty *)
  let q =
    Query.make ~name:"zed" ~from:[ "Users" ]
      ~where:Expr.(eq (col "name") (str "Zed"))
      [ Query.Field (Expr.col "uid", "uid") ]
  in
  let rng = Rng.create 4 in
  let deltas = Support.generate_query_aware ~rng ~queries:[ q ] db ~n:30 in
  let cs = Conflict.conflict_set db q deltas in
  Alcotest.(check bool) "non-empty conflict set" true (Array.length cs > 0)

(* --- conflict sets --- *)

let brute_conflict_set q deltas =
  let base = Qp_rel_oracle.run db q in
  Array.to_list deltas
  |> List.mapi (fun i d -> (i, d))
  |> List.filter_map (fun (i, d) ->
         if Result_set.equal base (Qp_rel_oracle.run (Delta.apply db d) q) then None
         else Some i)

let test_conflict_matches_brute_force () =
  let rng = Rng.create 6 in
  let deltas = Support.generate ~rng db ~n:60 in
  let rand = Random.State.make [| 42 |] in
  for i = 1 to 25 do
    let q = random_query rand i in
    Alcotest.(check (list int))
      ("conflict set of " ^ Query.to_sql q)
      (brute_conflict_set q deltas)
      (Array.to_list (Conflict.conflict_set db q deltas))
  done

let test_conflict_hypergraph () =
  let rng = Rng.create 7 in
  let deltas = Support.generate ~rng db ~n:30 in
  let valued = List.map (fun q -> (q, 5.0)) workload_queries in
  let h, stats = Conflict.hypergraph db valued deltas in
  Alcotest.(check int) "m" 2 (H.m h);
  Alcotest.(check int) "n" 30 (H.n_items h);
  Alcotest.(check int) "stats queries" 2 stats.Conflict.queries;
  Alcotest.(check int) "stats support" 30 stats.Conflict.support;
  Alcotest.(check bool) "named after query" true
    ((H.edge h 0).H.name = "w1")

let test_conflict_progress_callback () =
  let rng = Rng.create 8 in
  let deltas = Support.generate ~rng db ~n:10 in
  let calls = ref [] in
  let valued = List.map (fun q -> (q, 1.0)) workload_queries in
  let _ =
    Conflict.hypergraph
      ~on_progress:(fun ~done_ ~total -> calls := (done_, total) :: !calls)
      db valued deltas
  in
  Alcotest.(check (list (pair int int))) "progress" [ (2, 2); (1, 2) ] !calls

(* --- broker --- *)

let test_broker_lifecycle () =
  let broker = Broker.create ~seed:1 ~support_size:40 db in
  Alcotest.(check int) "support" 40 (Array.length (Broker.support broker));
  List.iter (fun q -> Broker.add_buyer broker ~valuation:10.0 q) workload_queries;
  Alcotest.(check int) "buyers" 2 (List.length (Broker.buyers broker));
  Broker.build broker;
  let h = Broker.hypergraph broker in
  Alcotest.(check int) "m" 2 (H.m h);
  let _ = Broker.price broker ~algorithm:"ubp" in
  Alcotest.(check bool) "expected revenue sane" true
    (Broker.expected_revenue broker >= 0.0
    && Broker.expected_revenue broker <= 20.0 +. 1e-9)

let test_broker_out_of_order () =
  let broker = Broker.create ~seed:1 ~support_size:10 db in
  (match Broker.hypergraph broker with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hypergraph before build");
  (match Broker.active_pricing broker with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pricing before price");
  Broker.build broker;
  match Broker.price broker ~algorithm:"nope" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown algorithm"

let test_broker_negative_valuation () =
  let broker = Broker.create ~seed:1 ~support_size:10 db in
  match Broker.add_buyer broker ~valuation:(-1.0) (List.hd workload_queries) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative valuation rejected"

let test_broker_quote_consistent_with_edge () =
  let broker = Broker.create ~seed:2 ~support_size:50 db in
  List.iter (fun q -> Broker.add_buyer broker ~valuation:10.0 q) workload_queries;
  Broker.build broker;
  let _ = Broker.price broker ~algorithm:"lpip" in
  let h = Broker.hypergraph broker in
  let p = Broker.active_pricing broker in
  List.iteri
    (fun i q ->
      Alcotest.(check (float 1e-9)) "quote = edge price"
        (Qp_core.Pricing.price p (H.edge h i))
        (Broker.quote broker q))
    workload_queries

let test_broker_purchase () =
  let broker = Broker.create ~seed:2 ~support_size:50 db in
  List.iter (fun q -> Broker.add_buyer broker ~valuation:10.0 q) workload_queries;
  Broker.build broker;
  Broker.set_pricing broker (Qp_core.Pricing.Uniform_bundle 5.0);
  (match Broker.purchase broker ~budget:4.0 (List.hd workload_queries) with
  | `Declined price -> Alcotest.(check (float 1e-9)) "declined price" 5.0 price
  | `Sold _ -> Alcotest.fail "should decline");
  (match Broker.purchase broker ~budget:6.0 (List.hd workload_queries) with
  | `Sold (price, answer) ->
      Alcotest.(check (float 1e-9)) "sold price" 5.0 price;
      Alcotest.(check bool) "answer correct" true
        (Result_set.equal answer (Qp_rel_oracle.run db (List.hd workload_queries)))
  | `Declined _ -> Alcotest.fail "should sell");
  Alcotest.(check (float 1e-9)) "collected" 5.0 (Broker.revenue_collected broker)

let test_broker_rebuild_on_new_buyer () =
  let broker = Broker.create ~seed:2 ~support_size:20 db in
  Broker.add_buyer broker ~valuation:1.0 (List.hd workload_queries);
  Broker.build broker;
  Broker.add_buyer broker ~valuation:1.0 (List.nth workload_queries 1);
  Broker.build broker;
  Alcotest.(check int) "m reflects new buyer" 2 (H.m (Broker.hypergraph broker))

let test_broker_non_finite_valuation () =
  let broker = Broker.create ~seed:1 ~support_size:10 db in
  List.iter
    (fun v ->
      match Broker.add_buyer broker ~valuation:v (List.hd workload_queries) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "valuation %h accepted" v)
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check int) "no buyer registered" 0 (List.length (Broker.buyers broker))

(* Adopting a hypergraph built elsewhere reproduces the built session
   without recomputing a conflict set; a query the build dropped (here:
   left out of the build) is not a buyer. *)
let test_broker_adopt () =
  let deltas = Support.generate ~rng:(Rng.create 3) db ~n:30 in
  let q1 = List.nth workload_queries 1 in
  let h, stats = Conflict.hypergraph db [ (q1, 7.0) ] deltas in
  let broker =
    Broker.adopt ~db ~support:deltas ~queries:workload_queries ~stats h
  in
  Alcotest.(check bool) "hypergraph adopted as is" true (Broker.hypergraph broker == h);
  Alcotest.(check bool) "support adopted as is" true (Broker.support broker == deltas);
  Alcotest.(check bool) "buyers: the built queries with their valuations" true
    (Broker.buyers broker = [ (q1, 7.0) ]);
  let p = Broker.price broker ~algorithm:"capped" in
  let price, items = Broker.quote_items broker q1 in
  Alcotest.(check (array int)) "fresh conflict set = adopted edge" (H.edge h 0).H.items
    items;
  Alcotest.(check (float 0.0)) "fresh quote = edge price"
    (Qp_core.Pricing.price p (H.edge h 0)) price;
  let valued = List.mapi (fun i q -> (q, Float.of_int (i + 1))) workload_queries in
  let h_all, stats_all = Conflict.hypergraph db valued deltas in
  Alcotest.(check bool) "buyers in registration order" true
    (Broker.buyers
       (Broker.adopt ~db ~support:deltas ~queries:workload_queries
          ~stats:stats_all h_all)
    = valued);
  match
    Broker.adopt ~db ~support:(Array.sub deltas 0 10) ~queries:workload_queries
      ~stats h
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "support size mismatch accepted"

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "market",
    [
      t "support distinct and non-noop" test_support_distinct_non_noop;
      t "support deterministic" test_support_deterministic;
      t "support deltas apply" test_support_applies;
      t "support exhaustion error" test_support_too_many;
      t "query-aware support" test_support_query_aware;
      t "query-aware flips empty footprints"
        test_support_query_aware_flips_empty_footprint;
      t "conflict sets match brute force (25 queries)"
        test_conflict_matches_brute_force;
      t "conflict hypergraph" test_conflict_hypergraph;
      t "conflict progress callback" test_conflict_progress_callback;
      t "broker lifecycle" test_broker_lifecycle;
      t "broker out-of-order errors" test_broker_out_of_order;
      t "broker rejects negative valuation" test_broker_negative_valuation;
      t "broker quote = hyperedge price" test_broker_quote_consistent_with_edge;
      t "broker purchase" test_broker_purchase;
      t "broker rebuilds on new buyer" test_broker_rebuild_on_new_buyer;
      t "broker rejects non-finite valuation" test_broker_non_finite_valuation;
      t "broker adopts a built instance" test_broker_adopt;
    ] )
