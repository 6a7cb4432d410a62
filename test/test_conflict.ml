(* Parallel conflict-set construction: the hypergraph must be
   bit-identical to the sequential build at any job count, progress must
   fire monotonically from the merge side, and the instrumentation
   record must partition the queries. *)

module C = Qp_market.Conflict
module WI = Qp_experiments.Workload_instances
module H = Qp_core.Hypergraph

let tpch = lazy (WI.tpch ~scale:WI.Tiny ~support:80 ~seed:11 ())
let uniform = lazy (WI.uniform ~scale:WI.Tiny ~support:80 ~m:25 ~seed:11 ())

(* Everything pricing reads from the instance: edge order, names,
   item sets, valuations. *)
let fingerprint h =
  Array.map
    (fun (e : H.edge) -> (e.H.name, Array.to_list e.H.items, e.H.valuation))
    (H.edges h)

let build ?on_progress ~jobs inst =
  let valued = List.map (fun q -> (q, 1.0)) inst.WI.queries in
  C.hypergraph ?on_progress ~jobs inst.WI.db valued inst.WI.deltas

let check_bit_identity name instl () =
  let inst = Lazy.force instl in
  let h1, _ = build ~jobs:1 inst in
  Alcotest.(check bool)
    (name ^ ": jobs=1 rebuild matches the instance build")
    true
    (fingerprint h1 = fingerprint inst.WI.hypergraph);
  List.iter
    (fun jobs ->
      let h, _ = build ~jobs inst in
      Alcotest.(check bool)
        (Printf.sprintf "%s: bit-identical hypergraph at jobs=%d" name jobs)
        true
        (fingerprint h = fingerprint h1))
    [ 2; 4 ]

let test_tpch_bit_identity = check_bit_identity "tpch" tpch
let test_uniform_bit_identity = check_bit_identity "uniform" uniform

let test_progress_monotone () =
  let inst = Lazy.force uniform in
  let calls = ref [] in
  let _ =
    build
      ~on_progress:(fun ~done_ ~total -> calls := (done_, total) :: !calls)
      ~jobs:4 inst
  in
  let calls = List.rev !calls in
  let total = List.length inst.WI.queries in
  Alcotest.(check int) "one call per query" total (List.length calls);
  List.iteri
    (fun i (done_, t) ->
      Alcotest.(check int)
        (Printf.sprintf "done_ increases monotonically (call %d)" i)
        (i + 1) done_;
      Alcotest.(check int) "total fixed across calls" total t)
    calls

let test_stats_sanity () =
  let inst = Lazy.force tpch in
  let _, s = build ~jobs:2 inst in
  let strategy_total = List.fold_left (fun a (_, n) -> a + n) 0 s.C.strategies in
  Alcotest.(check int) "queries" (List.length inst.WI.queries) s.C.queries;
  Alcotest.(check int) "support" (Array.length inst.WI.deltas) s.C.support;
  Alcotest.(check int) "strategy counts partition the queries" s.C.queries
    strategy_total;
  Alcotest.(check int) "fallback count agrees with the strategy split"
    s.C.fallback_queries
    (Option.value (List.assoc_opt "fallback" s.C.strategies) ~default:0);
  Alcotest.(check bool) "delta-eval + fallback = queries" true
    (s.C.queries - s.C.fallback_queries >= 0);
  Alcotest.(check bool) "elapsed > 0" true (s.C.elapsed > 0.0);
  Alcotest.(check int) "one timing per query" s.C.queries
    (Array.length s.C.query_seconds);
  Alcotest.(check bool) "per-query timings are non-negative" true
    (Array.for_all (fun t -> t >= 0.0) s.C.query_seconds);
  Alcotest.(check int) "requested pool size recorded" 2 s.C.jobs;
  Alcotest.(check int) "one busy entry per worker" s.C.jobs
    (Array.length s.C.worker_busy)

let test_stats_sequential_pool () =
  let inst = Lazy.force uniform in
  let _, s = build ~jobs:1 inst in
  Alcotest.(check int) "sequential build reports one job" 1 s.C.jobs;
  Alcotest.(check int) "single busy slot" 1 (Array.length s.C.worker_busy)

(* The engine-agreement helper counts (edge, item) memberships in one
   hypergraph and not the other, and refuses hypergraphs whose edges do
   not line up. *)
let test_disagreements () =
  let h specs = H.create ~n_items:6 (Array.of_list specs) in
  let base =
    h [ ("a", [| 0; 2; 4 |], 1.0); ("b", [| 1 |], 2.0); ("c", [||], 1.0) ]
  in
  (* valuations are not compared *)
  let same =
    h [ ("a", [| 0; 2; 4 |], 5.0); ("b", [| 1 |], 0.0); ("c", [||], 1.0) ]
  in
  Alcotest.(check (list (pair string int))) "identical" []
    (C.disagreements base same);
  (* a loses 2 and gains 5, b gains 3, c gains 0: k = 4 *)
  let other =
    h [ ("a", [| 0; 4; 5 |], 1.0); ("b", [| 1; 3 |], 2.0); ("c", [| 0 |], 1.0) ]
  in
  Alcotest.(check (list (pair string int))) "k memberships"
    [ ("a", 2); ("a", 5); ("b", 3); ("c", 0) ]
    (C.disagreements base other);
  Alcotest.(check int) "symmetric" 4 (List.length (C.disagreements other base));
  let raises name h' =
    match C.disagreements base h' with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "edge count" (h [ ("a", [| 0; 2; 4 |], 1.0); ("b", [| 1 |], 2.0) ]);
  raises "edge names"
    (h [ ("a", [| 0; 2; 4 |], 1.0); ("c", [| 1 |], 2.0); ("b", [||], 1.0) ])

(* The default build pinned to recorded digests: for each Tiny
   workload, the MD5 of every edge's name, items and valuation (as
   int64 bits), with per-query valuations so the pin covers them too.
   Any change to the production delta path that moves one membership
   or reorders one edge changes a digest. *)
let pinned_digests =
  [
    ("skewed", "f8d971ea849a9acdd520cf595220bc5c");
    ("uniform", "bdcd0196429a3c9b9db738abaeab30f3");
    ("tpch", "1bb84f76cfca2843d668402a493955e7");
    ("ssb", "ca5b7af991a2e3c848269b63c776c37b");
  ]

let hypergraph_digest h =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (e : H.edge) ->
      Buffer.add_string b e.H.name;
      Array.iter (fun i -> Buffer.add_string b (Printf.sprintf " %d" i)) e.H.items;
      Buffer.add_string b
        (Printf.sprintf " %Lx\n" (Int64.bits_of_float e.H.valuation)))
    (H.edges h);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pinned_digests () =
  let got =
    List.map
      (fun key ->
        let inst = WI.build key ~scale:WI.Tiny ~seed:7 () in
        let valued =
          List.mapi (fun i q -> (q, float_of_int (i + 1) /. 7.0)) inst.WI.queries
        in
        let h, _ = C.hypergraph ~jobs:1 inst.WI.db valued inst.WI.deltas in
        (key, hypergraph_digest h))
      WI.keys
  in
  Alcotest.(check (list (pair string string)))
    "default build digests" pinned_digests got

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "conflict",
    [
      t "tpch bit-identical across job counts" test_tpch_bit_identity;
      t "uniform bit-identical across job counts" test_uniform_bit_identity;
      t "progress fires monotonically from the merge" test_progress_monotone;
      t "stats partition queries and workers" test_stats_sanity;
      t "sequential pool stats" test_stats_sequential_pool;
      t "disagreements count differing memberships" test_disagreements;
      t "default build pinned on the Tiny workloads" test_pinned_digests;
    ] )
