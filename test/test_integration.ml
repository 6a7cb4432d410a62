(* Cross-cutting integration tests: conflict sets on the real generated
   workloads checked against brute-force re-evaluation, and an
   end-to-end pipeline pass over every workload at tiny scale. *)

module R = Qp_relational
module Support = Qp_market.Support
module Conflict = Qp_market.Conflict
module WI = Qp_experiments.Workload_instances
module H = Qp_core.Hypergraph
module P = Qp_core.Pricing
module Rng = Qp_util.Rng

let brute_conflict_set db q deltas =
  let base = Qp_rel_oracle.run db q in
  Array.to_list deltas
  |> List.mapi (fun i d -> (i, d))
  |> List.filter_map (fun (i, d) ->
         if R.Result_set.equal base (Qp_rel_oracle.run (R.Delta.apply db d) q) then
           None
         else Some i)

(* Sample every k-th query of a workload and compare the incremental
   conflict sets against brute force. *)
let check_workload_conflicts ~name db queries deltas ~stride =
  List.iteri
    (fun i q ->
      if i mod stride = 0 then
        Alcotest.(check (list int))
          (Printf.sprintf "%s: %s" name q.R.Query.name)
          (brute_conflict_set db q deltas)
          (Array.to_list (Conflict.conflict_set db q deltas)))
    queries

let test_tpch_conflicts () =
  let rng = Rng.create 41 in
  let db =
    Qp_workloads.Tpch.generate ~rng:(Rng.split rng "db")
      ~config:Qp_workloads.Tpch.tiny_config ()
  in
  let queries = Qp_workloads.Tpch_queries.workload () in
  let deltas =
    Support.generate_query_aware ~rng:(Rng.split rng "s") ~queries db ~n:60
  in
  check_workload_conflicts ~name:"tpch" db queries deltas ~stride:9

let test_ssb_conflicts () =
  let rng = Rng.create 42 in
  let db =
    Qp_workloads.Ssb.generate ~rng:(Rng.split rng "db")
      ~config:Qp_workloads.Ssb.tiny_config ()
  in
  let queries = Qp_workloads.Ssb_queries.workload () in
  let deltas =
    Support.generate_query_aware ~rng:(Rng.split rng "s") ~queries db ~n:40
  in
  check_workload_conflicts ~name:"ssb" db queries deltas ~stride:31

let test_world_conflicts () =
  let rng = Rng.create 43 in
  let db =
    Qp_workloads.World.generate ~rng:(Rng.split rng "db")
      ~config:Qp_workloads.World.tiny_config ()
  in
  let queries = Qp_workloads.World_queries.workload db in
  let deltas =
    Support.generate_query_aware ~rng:(Rng.split rng "s") ~queries db ~n:50
  in
  check_workload_conflicts ~name:"world" db queries deltas ~stride:17

(* Every workload at tiny scale, end to end: build, price with every
   algorithm, and validate the basic revenue accounting invariants. *)
let test_pipeline_all_workloads () =
  List.iter
    (fun key ->
      let inst = WI.build key ~scale:WI.Tiny ~support:80 ~seed:2 () in
      let h =
        Qp_workloads.Valuations.apply ~rng:(Rng.create 3)
          (Qp_workloads.Valuations.Uniform_val 50.0) inst.WI.hypergraph
      in
      let total = H.sum_valuations h in
      List.iter
        (fun (spec : Qp_core.Algorithms.spec) ->
          let pricing = spec.solve h in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s valid" key spec.key)
            true (P.is_valid pricing h);
          let revenue = P.revenue pricing h in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s revenue in range" key spec.key)
            true
            (revenue >= -1e-9 && revenue <= total +. 1e-6);
          (* revenue accounting: the sum of prices over sold edges *)
          let resold =
            List.fold_left
              (fun acc e -> acc +. P.price pricing e)
              0.0 (P.sold_edges pricing h)
          in
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "%s/%s accounting" key spec.key)
            revenue resold)
        (Qp_core.Algorithms.all ()))
    WI.keys

(* Broker + fresh query quoting against a real workload: quotes of
   sub-queries of registered queries must respect information-arbitrage
   ordering when the conflict sets nest. *)
let test_information_arbitrage_on_world () =
  let rng = Rng.create 44 in
  let db =
    Qp_workloads.World.generate ~rng ~config:Qp_workloads.World.tiny_config ()
  in
  let broker = Qp_market.Broker.create ~seed:44 ~support_size:120 db in
  List.iter
    (fun q -> Qp_market.Broker.add_buyer broker ~valuation:25.0 q)
    (Qp_workloads.World_queries.base_templates db);
  Qp_market.Broker.build broker;
  let _ = Qp_market.Broker.price broker ~algorithm:"lpip" in
  let c = R.Expr.col and s = R.Expr.str in
  (* count of European countries is determined by the continent group-by *)
  let count_europe =
    R.Query.make ~name:"ce" ~from:[ "Country" ]
      ~where:(R.Expr.eq (c "Continent") (s "Europe"))
      [ R.Query.Aggregate (R.Query.Count (c "Name"), "cnt") ]
  in
  let by_continent =
    R.Query.make ~name:"bc" ~from:[ "Country" ]
      ~group_by:[ c "Continent" ]
      [ R.Query.Field (c "Continent", "c");
        R.Query.Aggregate (R.Query.Count (c "Name"), "cnt") ]
  in
  let p1 = Qp_market.Broker.quote broker count_europe in
  let p2 = Qp_market.Broker.quote broker by_continent in
  Alcotest.(check bool) "determined query is cheaper" true (p1 <= p2 +. 1e-9)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "integration",
    [
      t "tpch conflict sets vs brute force" test_tpch_conflicts;
      t "ssb conflict sets vs brute force" test_ssb_conflicts;
      t "world conflict sets vs brute force" test_world_conflicts;
      t "pipeline on all workloads" test_pipeline_all_workloads;
      t "information arbitrage on world quotes"
        test_information_arbitrage_on_world;
    ] )
