(* Tests for the Qp_util.Parallel worker pool: deterministic ordering,
   exception propagation, degenerate shapes — and bit-identical results
   from the parallel solvers and the experiment runner at any job
   count. *)

module Parallel = Qp_util.Parallel
module WI = Qp_experiments.Workload_instances
module Runner = Qp_experiments.Runner
module V = Qp_workloads.Valuations
module Rng = Qp_util.Rng

(* --- Parallel.map unit tests ---------------------------------------- *)

let test_map_matches_sequential () =
  let xs = Array.init 1000 Fun.id in
  let f x = (x * x) + 1 in
  let expected = Array.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "ordered at jobs=%d" jobs)
        expected
        (Parallel.map ~jobs f xs))
    [ 1; 2; 3; 8 ]

let test_map_empty () =
  Alcotest.(check (array int)) "empty input" [||]
    (Parallel.map ~jobs:4 (fun x -> x) [||])

let test_map_more_jobs_than_items () =
  Alcotest.(check (array int)) "jobs > items" [| 2; 4; 6 |]
    (Parallel.map ~jobs:16 (fun x -> 2 * x) [| 1; 2; 3 |])

let test_map_list () =
  Alcotest.(check (list int)) "map_list keeps order" [ 1; 4; 9; 16 ]
    (Parallel.map_list ~jobs:3 (fun x -> x * x) [ 1; 2; 3; 4 ])

exception Boom of int

let test_map_propagates_exceptions () =
  let xs = Array.init 64 Fun.id in
  match Parallel.map ~jobs:4 (fun x -> if x = 17 then raise (Boom x) else x) xs with
  | exception Boom 17 -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected the worker's exception to propagate"

let test_map_reduce_merge_order () =
  (* merge order must follow the index order, as the sequential fold
     would: string concatenation makes any reordering visible *)
  let xs = Array.init 40 Fun.id in
  let expected =
    Array.fold_left (fun acc x -> acc ^ string_of_int x ^ ";") "" xs
  in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "fold order at jobs=%d" jobs)
        expected
        (Parallel.map_reduce ~jobs
           ~map:(fun x -> string_of_int x ^ ";")
           ~merge:( ^ ) ~init:"" xs))
    [ 1; 2; 5 ]

let test_default_jobs_env () =
  let saved = try Some (Sys.getenv "QP_JOBS") with Not_found -> None in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "QP_JOBS" (Option.value saved ~default:""))
    (fun () ->
      Unix.putenv "QP_JOBS" "3";
      Alcotest.(check int) "QP_JOBS read" 3 (Parallel.default_jobs ());
      Unix.putenv "QP_JOBS" "0";
      Alcotest.(check bool) "nonsense clamped to >= 1" true
        (Parallel.default_jobs () >= 1);
      Unix.putenv "QP_JOBS" "";
      Alcotest.(check bool) "unset falls back to cores" true
        (Parallel.default_jobs () >= 1))

(* --- solver determinism across job counts ---------------------------- *)

let tiny = lazy (WI.skewed ~scale:WI.Tiny ~support:100 ~seed:9 ())

let valued () =
  let inst = Lazy.force tiny in
  (inst, V.apply ~rng:(Rng.create 3) (V.Uniform_val 100.0) inst.WI.hypergraph)

let test_lpip_bit_identical () =
  let _, h = valued () in
  let solve jobs =
    let r =
      Qp_core.Lpip.solve_report
        ~options:
          { Qp_core.Lpip.max_candidates = Some 8; max_pivots = 200_000;
            jobs = Some jobs }
        h
    in
    (r.Qp_core.Lpip.pricing, r.Qp_core.Lpip.solved)
  in
  let (p1, lps1) = solve 1 in
  List.iter
    (fun jobs ->
      let (p, lps) = solve jobs in
      Alcotest.(check int)
        (Printf.sprintf "same LP count at jobs=%d" jobs)
        lps1 lps;
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical pricing at jobs=%d" jobs)
        true (p = p1))
    [ 2; 4 ]

let test_capped_bit_identical () =
  let _, h = valued () in
  let ((w1, c1), r1) = Qp_core.Capped.optimal ~jobs:1 h in
  List.iter
    (fun jobs ->
      let ((w, c), r) = Qp_core.Capped.optimal ~jobs h in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical at jobs=%d" jobs)
        true
        (w = w1 && c = c1 && r = r1))
    [ 2; 4 ]

let test_run_cell_bit_identical () =
  let inst, _ = valued () in
  let cell jobs =
    Runner.run_cell ~jobs ~n_runs:3 ~profile:Runner.Quick ~seed:5
      (V.Zipf_val 2.0) inst
  in
  (* seconds are wall-clock and may differ; everything else must not *)
  let fingerprint (c : Runner.cell) =
    ( c.Runner.sum_valuations,
      c.Runner.subadditive,
      List.map
        (fun (m : Runner.measurement) -> (m.algorithm, m.revenue, m.normalized))
        c.Runner.measurements )
  in
  let base = fingerprint (cell 1) in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical cell at jobs=%d" jobs)
        true
        (fingerprint (cell jobs) = base))
    [ 2; 4 ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "parallel",
    [
      t "map matches Array.map" test_map_matches_sequential;
      t "map on empty input" test_map_empty;
      t "more jobs than items" test_map_more_jobs_than_items;
      t "map_list keeps order" test_map_list;
      t "exceptions propagate" test_map_propagates_exceptions;
      t "map_reduce merge order" test_map_reduce_merge_order;
      t "QP_JOBS env handling" test_default_jobs_env;
      t "LPIP bit-identical across job counts" test_lpip_bit_identical;
      t "Capped bit-identical across job counts" test_capped_bit_identical;
      t "run_cell bit-identical across job counts" test_run_cell_bit_identical;
    ] )
