(* Tests for the experiment layer: instance builders, the runner, the
   registry — plus an end-to-end integration pass on a tiny instance. *)

module WI = Qp_experiments.Workload_instances
module Runner = Qp_experiments.Runner
module Registry = Qp_experiments.Registry
module Context = Qp_experiments.Context
module V = Qp_workloads.Valuations
module H = Qp_core.Hypergraph
module P = Qp_core.Pricing
module Arbitrage = Qp_market.Arbitrage

let tiny = lazy (WI.skewed ~scale:WI.Tiny ~support:100 ~seed:9 ())

let test_builder_shapes () =
  let inst = Lazy.force tiny in
  let h = inst.WI.hypergraph in
  Alcotest.(check int) "n = support" 100 (H.n_items h);
  Alcotest.(check int) "m = queries" (List.length inst.WI.queries) (H.m h);
  Alcotest.(check int) "deltas" 100 (Array.length inst.WI.deltas)

let test_builder_deterministic () =
  let a = WI.skewed ~scale:WI.Tiny ~support:60 ~seed:4 () in
  let b = WI.skewed ~scale:WI.Tiny ~support:60 ~seed:4 () in
  Alcotest.(check bool) "same hypergraph" true
    (Array.for_all2
       (fun (x : H.edge) (y : H.edge) -> x.items = y.items)
       (H.edges a.WI.hypergraph) (H.edges b.WI.hypergraph))

let test_builder_by_key () =
  List.iter
    (fun key ->
      let inst = WI.build key ~scale:WI.Tiny ~support:40 ~seed:1 () in
      Alcotest.(check string) "key" key inst.WI.key)
    WI.keys;
  match WI.build "bogus" ~seed:1 () with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_rebuild_with_support () =
  let inst = Lazy.force tiny in
  let bigger = WI.rebuild_with_support inst ~support:150 ~seed:9 in
  Alcotest.(check int) "new support" 150 (H.n_items bigger.WI.hypergraph);
  Alcotest.(check int) "same queries" (H.m inst.WI.hypergraph)
    (H.m bigger.WI.hypergraph)

let test_runner_cell () =
  let inst = Lazy.force tiny in
  let cell =
    Runner.run_cell ~profile:Runner.Quick ~seed:1 (V.Uniform_val 100.0) inst
  in
  Alcotest.(check int) "six algorithms" 6 (List.length cell.Runner.measurements);
  List.iter
    (fun (m : Runner.measurement) ->
      Alcotest.(check bool) ("normalized in [0,1]: " ^ m.algorithm) true
        (m.normalized >= 0.0 && m.normalized <= 1.0 +. 1e-9))
    cell.Runner.measurements;
  (* the clamped bound dominates every measurement *)
  List.iter
    (fun (m : Runner.measurement) ->
      Alcotest.(check bool) "bound envelope" true
        (cell.Runner.subadditive >= m.normalized -. 1e-9))
    cell.Runner.measurements

let test_runner_deterministic () =
  let inst = Lazy.force tiny in
  let run () =
    (Runner.run_cell ~profile:Runner.Quick ~seed:5 (V.Zipf_val 2.0) inst)
      .Runner.measurements
    |> List.map (fun (m : Runner.measurement) -> m.normalized)
  in
  Alcotest.(check bool) "same normalized revenues" true (run () = run ())

let test_cell_table_renders () =
  let inst = Lazy.force tiny in
  let cell =
    Runner.run_cell ~profile:Runner.Quick ~seed:1 (V.Uniform_val 10.0) inst
  in
  let s = Runner.cell_table ~header_label:"model" [ cell ] in
  Alcotest.(check bool) "mentions LPIP" true
    (Astring_contains.contains s "LPIP")

let test_registry_unique_ids () =
  Alcotest.(check int) "ids unique" (List.length Registry.ids)
    (List.length (List.sort_uniq compare Registry.ids));
  Alcotest.(check bool) "find works" true (Registry.find "fig5" <> None);
  Alcotest.(check bool) "find case-insensitive" true (Registry.find "FIG5" <> None);
  Alcotest.(check bool) "missing" true (Registry.find "fig99" = None)

(* Integration: on a tiny end-to-end instance, every algorithm's output
   passes the arbitrage checker over the actual workload bundles. *)
let test_end_to_end_arbitrage_free () =
  let inst = Lazy.force tiny in
  let h =
    V.apply ~rng:(Qp_util.Rng.create 2) (V.Uniform_val 100.0) inst.WI.hypergraph
  in
  List.iter
    (fun (spec : Qp_core.Algorithms.spec) ->
      let pricing = spec.solve h in
      match Arbitrage.check_edges pricing h with
      | None -> ()
      | Some v ->
          Alcotest.failf "%s violates arbitrage-freeness: %s" spec.label
            (Format.asprintf "%a" Arbitrage.pp_violation v))
    (Runner.algorithms Runner.Quick)

let test_revenue_never_exceeds_bound () =
  let inst = Lazy.force tiny in
  List.iter
    (fun model ->
      let cell = Runner.run_cell ~profile:Runner.Quick ~seed:3 model inst in
      List.iter
        (fun (m : Runner.measurement) ->
          Alcotest.(check bool) "rev <= sum" true (m.normalized <= 1.0 +. 1e-9))
        cell.Runner.measurements)
    [ V.Uniform_val 100.0; V.Scaled_exp 0.5;
      V.Additive { k = 10; dtilde = V.D_uniform } ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "experiments",
    [
      t "builder shapes" test_builder_shapes;
      t "builder deterministic" test_builder_deterministic;
      t "builder by key" test_builder_by_key;
      t "rebuild with support" test_rebuild_with_support;
      t "runner cell invariants" test_runner_cell;
      t "runner deterministic" test_runner_deterministic;
      t "cell table renders" test_cell_table_renders;
      t "registry ids unique" test_registry_unique_ids;
      t "end-to-end arbitrage-free" test_end_to_end_arbitrage_free;
      t "revenue bounded by valuations" test_revenue_never_exceeds_bound;
    ] )
