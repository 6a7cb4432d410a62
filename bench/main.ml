(* Benchmark harness: regenerates every table and figure of the paper
   (via Qp_experiments.Registry) and finishes with bechamel
   micro-benchmarks of the core primitives.

   Usage: main.exe [--jobs N] [--trace FILE] [micro]
          [parallel] [conflict] [simplex] [warmstart] [EXPERIMENT-IDS...]
   With no arguments every experiment runs, in the paper's order,
   followed by the micro-benchmarks. "micro", "parallel", "conflict",
   "simplex" and "warmstart" are pseudo-ids that can be mixed freely
   with experiment ids: "micro" appends the bechamel micro-benchmarks,
   "parallel" times the worker pool at jobs=1 vs jobs=N and writes
   BENCH_parallel.json, "conflict" times the parallel conflict-set
   construction per workload and writes BENCH_conflict.json, "simplex"
   times the dense tableau oracle against the revised simplex across
   growing LP sizes and writes BENCH_simplex.json, "warmstart" times
   the CIP/LPIP sweeps cold vs warm-started and writes
   BENCH_warmstart.json. Unknown ids abort
   upfront (exit 2) with the list of valid experiment and pseudo ids.
   --jobs N sets QP_JOBS for the whole process; --trace FILE records
   the whole run as Chrome trace-event JSONL (aggregate with 'qpricing
   report'). Every BENCH_*.json carries a "meta" block (git commit,
   QP_JOBS, profile, UTC timestamp) identifying the run. QP_BENCH_PROFILE=full switches
   to the slower, closer-to-paper settings (5 runs, finer LP grids). *)

module Registry = Qp_experiments.Registry
module Context = Qp_experiments.Context
module WI = Qp_experiments.Workload_instances
module H = Qp_core.Hypergraph
module V = Qp_workloads.Valuations
module Rng = Qp_util.Rng
module Timing = Qp_util.Timing

(* --- run metadata for BENCH_*.json ----------------------------------- *)

(* Identifies a benchmark run: without the commit and job count a stored
   BENCH_*.json is not comparable to a fresh one. *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, commit when commit <> "" -> commit
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* The robustness state at write time: which fault specs are armed, how
   often each site fired, and the degradation/retry counters (the latter
   flow through Qp_obs, so they are empty unless tracing is on). A
   BENCH_*.json from a chaos run is thereby self-describing — the
   numbers can never be mistaken for a healthy run's. *)
let faults_json () =
  let prefixes =
    [ "fault."; "degraded"; "lpip.lp_failures"; "cip.lp_failures";
      "bounds.degraded"; "simplex.budget_exhausted"; "simplex.numerical_error";
      "simplex.bland_engaged"; "parallel.task_failures"; "conflict.query_";
      "runner.cell_" ]
  in
  let has_prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let counters =
    List.filter
      (fun (name, _) -> List.exists (fun p -> has_prefix p name) prefixes)
      (Qp_obs.counters ())
  in
  let pairs kv l = String.concat ", " (List.map kv l) in
  Printf.sprintf
    "\"faults\": { \"specs\": [%s], \"injected\": { %s }, \"counters\": { %s } }"
    (String.concat ", "
       (List.map
          (fun s -> Printf.sprintf "%S" (Qp_fault.describe s))
          (Qp_fault.specs ())))
    (pairs (fun (site, n) -> Printf.sprintf "%S: %d" site n)
       (Qp_fault.injections ()))
    (pairs (fun (name, n) -> Printf.sprintf "%S: %d" name n) counters)

let meta_json ctx =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf
    "\"meta\": { \"git_commit\": %S, \"qp_jobs\": %d, \"profile\": %S, \
     \"timestamp\": \"%04d-%02d-%02dT%02d:%02d:%02dZ\", %s }"
    (git_commit ())
    (Qp_util.Parallel.default_jobs ())
    (match Context.profile ctx with
    | Qp_experiments.Runner.Quick -> "quick"
    | Qp_experiments.Runner.Full -> "full")
    (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    (faults_json ())

let run_experiments ctx entries =
  let fmt = Format.std_formatter in
  List.iter
    (fun (e : Registry.entry) ->
      Format.fprintf fmt "@.==================================================@.";
      Format.fprintf fmt "== %s (%s)@." e.title e.id;
      Format.fprintf fmt "==================================================@.";
      let (), seconds = Timing.time (fun () -> e.run fmt ctx) in
      Format.fprintf fmt "[%s completed in %.1fs]@." e.id seconds)
    entries

(* --- bechamel micro-benchmarks -------------------------------------- *)

let microbenchmarks ctx =
  let open Bechamel in
  let inst = Context.instance ctx "skewed" in
  let h =
    V.apply ~rng:(Rng.create 1) (V.Uniform_val 100.0) inst.WI.hypergraph
  in
  let deltas = inst.WI.deltas in
  let db = inst.WI.db in
  let query = List.hd inst.WI.queries in
  let prep = Qp_relational.Delta_eval.prepare db query in
  let fresh_h () =
    (* classes are cached per hypergraph; rebuild to measure cold cost *)
    H.with_valuations inst.WI.hypergraph (H.valuations h)
  in
  let simplex_input =
    ( Array.init 30 (fun i -> Float.of_int (1 + (i mod 7))),
      Array.init 40 (fun i ->
          ( Qp_lp.Sparse.of_dense
              (Array.init 30 (fun j -> Float.of_int ((i + j) mod 5))),
            50.0 )) )
  in
  let ubp_pricing = Qp_core.Ubp.solve h in
  let tests =
    [
      Test.make ~name:"ubp-solve" (Staged.stage (fun () -> Qp_core.Ubp.solve h));
      Test.make ~name:"uip-solve" (Staged.stage (fun () -> Qp_core.Uip.solve h));
      Test.make ~name:"layering-solve"
        (Staged.stage (fun () -> Qp_core.Layering.solve h));
      Test.make ~name:"classes-compute"
        (Staged.stage (fun () -> H.classes (fresh_h ())));
      Test.make ~name:"conflict-differs-1-delta"
        (Staged.stage (fun () ->
             Qp_relational.Delta_eval.differs prep deltas.(0)));
      Test.make ~name:"simplex-30x40"
        (Staged.stage (fun () ->
             let c, rows = simplex_input in
             Qp_lp.Simplex.solve ~c ~rows ()));
      Test.make ~name:"revenue-eval"
        (Staged.stage (fun () -> Qp_core.Pricing.revenue ubp_pricing h));
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
    let raw = Benchmark.all cfg instances test in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  print_newline ();
  print_endline "==================================================";
  print_endline "== bechamel micro-benchmarks";
  print_endline "==================================================";
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-28s %12.0f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
        results)
    tests

(* --- conflict-set construction benchmark ----------------------------- *)

(* Times Conflict.hypergraph per workload across the engine dimension —
   the row-at-a-time reference (Qp_rel_oracle) at jobs=1, the columnar
   default at jobs=1 and at jobs=N — verifies every build is
   bit-identical and the row and columnar jobs=1 conflict sets have
   zero disagreements, and writes BENCH_conflict.json. The headline
   metric is the same-run per-query-mean ratio row/columnar at jobs=1
   ("speedup_columnar"), which is robust on a 1-CPU container where
   absolute times drift. *)
let conflict_bench ~meta ctx =
  let module C = Qp_market.Conflict in
  let jobs_n = max 2 (Qp_util.Parallel.default_jobs ()) in
  print_newline ();
  print_endline "==================================================";
  Printf.printf "== conflict-set construction: row vs columnar, jobs=1 vs %d\n"
    jobs_n;
  print_endline "==================================================";
  let fingerprint h =
    Array.map
      (fun (e : H.edge) -> (e.H.name, e.H.items, e.H.valuation))
      (H.edges h)
  in
  let query_mean (s : C.stats) =
    if s.C.queries = 0 then 0.0
    else
      Array.fold_left ( +. ) 0.0 s.C.query_seconds /. Float.of_int s.C.queries
  in
  let results =
    List.map
      (fun key ->
        let inst = Context.instance ctx key in
        let valued = List.map (fun q -> (q, 1.0)) inst.WI.queries in
        let build ?prepare ~jobs () =
          C.hypergraph ~jobs ?prepare inst.WI.db valued inst.WI.deltas
        in
        let h_row, s_row = build ~prepare:Qp_rel_oracle.prepare ~jobs:1 () in
        let h_col1, s_col1 = build ~jobs:1 () in
        let h_coln, s_coln = build ~jobs:jobs_n () in
        let check_mismatches = List.length (C.disagreements h_row h_col1) in
        if check_mismatches > 0 then begin
          Printf.eprintf "BUG: %s row and columnar disagree on %d conflicts\n"
            key check_mismatches;
          exit 1
        end;
        let fp = fingerprint h_row in
        let fingerprints_equal =
          fp = fingerprint h_col1 && fp = fingerprint h_coln
        in
        if not fingerprints_equal then begin
          Printf.eprintf "BUG: %s hypergraph differs across engines/jobs\n" key;
          exit 1
        end;
        let speedup_columnar =
          query_mean s_row /. Float.max 1e-9 (query_mean s_col1)
        in
        Printf.printf
          "  %-8s row %8.3fs   columnar %8.3fs (%.2fx/query)   jobs=%d \
           %8.3fs   engines agree   (%d queries, |S|=%d, %d fallback)\n%!"
          key s_row.C.elapsed s_col1.C.elapsed speedup_columnar jobs_n
          s_coln.C.elapsed s_coln.C.queries s_coln.C.support
          s_coln.C.fallback_queries;
        (key, s_row, s_col1, s_coln, check_mismatches, speedup_columnar,
         fingerprints_equal))
      WI.keys
  in
  let oc = open_out "BENCH_conflict.json" in
  let float_array a =
    String.concat ", "
      (Array.to_list (Array.map (Printf.sprintf "%.6f") a))
  in
  Printf.fprintf oc "{\n  %s,\n  \"jobs_n\": %d,\n  \"workloads\": [" (meta ())
    jobs_n;
  List.iteri
    (fun i
         (key, (s_row : C.stats), (s_col1 : C.stats), (s_coln : C.stats),
          check_mismatches, speedup_columnar, fingerprints_equal) ->
      Printf.fprintf oc
        "%s\n    { \"workload\": %S, \"queries\": %d, \"support\": %d,\n\
        \      \"fallback_queries\": %d, \"failed_queries\": %d,\n\
        \      \"strategies\": { %s },\n\
        \      \"row_seconds\": %.6f, \"row_query_mean\": %.6f,\n\
        \      \"seconds_jobs_1\": %.6f, \"seconds_jobs_n\": %.6f,\n\
        \      \"speedup\": %.3f, \"speedup_columnar\": %.3f,\n\
        \      \"check_mismatches\": %d,\n\
        \      \"fingerprints_equal\": %b, \"jobs_used\": %d,\n\
        \      \"worker_busy_seconds\": [%s],\n\
        \      \"query_seconds_mean\": %.6f, \"query_seconds_max\": %.6f }"
        (if i = 0 then "" else ",")
        key s_coln.C.queries s_coln.C.support s_coln.C.fallback_queries
        (List.length s_coln.C.failed_queries)
        (String.concat ", "
           (List.map
              (fun (name, n) -> Printf.sprintf "%S: %d" name n)
              s_coln.C.strategies))
        s_row.C.elapsed (query_mean s_row) s_col1.C.elapsed s_coln.C.elapsed
        (s_col1.C.elapsed /. Float.max 1e-9 s_coln.C.elapsed)
        speedup_columnar check_mismatches
        fingerprints_equal s_coln.C.jobs
        (float_array s_coln.C.worker_busy)
        (query_mean s_col1)
        (Array.fold_left Float.max 0.0 s_col1.C.query_seconds))
    results;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc;
  Qp_experiments.Exp_runtime.build_breakdown Format.std_formatter ctx;
  Printf.printf "  wrote BENCH_conflict.json\n%!"

(* --- parallel-layer benchmark --------------------------------------- *)

(* Each side is timed in [parallel_pairs] interleaved pairs, alternating
   which side runs first, so a host whose speed drifts during the bench
   moves both sides alike; the speedup is the ratio of the medians, and
   min/max show how far one sample strays. *)
let parallel_pairs = 5

let median_min_max samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  (a.(n / 2), a.(0), a.(n - 1))

let parallel_bench ~meta ctx =
  let module Runner = Qp_experiments.Runner in
  let jobs_n = max 2 (Qp_util.Parallel.default_jobs ()) in
  let profile = Context.profile ctx in
  let inst = Context.instance ctx "skewed" in
  let h =
    V.apply ~rng:(Rng.create 1) (V.Uniform_val 100.0) inst.WI.hypergraph
  in
  ignore (H.classes h);
  let lpip jobs () =
    ignore
      (Qp_core.Lpip.solve_report
         ~options:
           { (Runner.lpip_options profile) with Qp_core.Lpip.jobs = Some jobs }
         h)
  in
  let cip jobs () =
    ignore
      (Qp_core.Cip.solve_report
         ~options:
           { (Runner.cip_options profile) with
             Qp_core.Cip.jobs = Some jobs;
             time_budget = None;
           }
         h)
  in
  let capped jobs () = ignore (Qp_core.Capped.optimal ~jobs h) in
  let cell jobs () =
    ignore
      (Runner.run_cell ~jobs ~n_runs:4 ~profile ~seed:7 (V.Uniform_val 100.0)
         inst)
  in
  print_newline ();
  print_endline "==================================================";
  Printf.printf "== parallel layer: jobs=1 vs jobs=%d\n" jobs_n;
  print_endline "==================================================";
  let results =
    List.map
      (fun (name, f) ->
        let s1 = ref [] and sn = ref [] in
        let side jobs acc = acc := snd (Timing.time (f jobs)) :: !acc in
        for pair = 0 to parallel_pairs - 1 do
          if pair mod 2 = 0 then (side 1 s1; side jobs_n sn)
          else (side jobs_n sn; side 1 s1)
        done;
        let ((t1, _, _) as one) = median_min_max !s1
        and ((tn, _, _) as many) = median_min_max !sn in
        Printf.printf
          "  %-12s jobs=1 %8.3fs   jobs=%d %8.3fs   speedup %.2fx (medians of %d)\n%!"
          name t1 jobs_n tn
          (t1 /. Float.max 1e-9 tn)
          parallel_pairs;
        (name, one, many))
      [ ("lpip", lpip); ("cip", cip); ("capped", capped); ("runner-cell", cell) ]
  in
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc
    "{\n  %s,\n  \"jobs\": %d,\n  \"pairs\": %d,\n  \"algorithms\": ["
    (meta ()) jobs_n parallel_pairs;
  List.iteri
    (fun i (name, (t1, min1, max1), (tn, minn, maxn)) ->
      Printf.fprintf oc
        "%s\n    { \"name\": %S, \"seconds_jobs_1\": %.6f, \
         \"min_jobs_1\": %.6f, \"max_jobs_1\": %.6f, \
         \"seconds_jobs_n\": %.6f, \"min_jobs_n\": %.6f, \
         \"max_jobs_n\": %.6f, \"speedup\": %.3f }"
        (if i = 0 then "" else ",")
        name t1 min1 max1 tn minn maxn
        (t1 /. Float.max 1e-9 tn))
    results;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc;
  Printf.printf "  wrote BENCH_parallel.json\n%!"

(* --- simplex engine benchmark ----------------------------------------- *)

(* Times the dense tableau against the revised (sparse-column, eta-file)
   engine on pricing-shaped LPs of growing size and writes
   BENCH_simplex.json. Pricing LPs are sparse — a handful of nonzeros
   per row regardless of the support size — which is exactly the regime
   where the dense tableau's O(rows * cols) per pivot loses to pricing
   over sparse columns. The "crossover" reported at the end is the
   smallest benchmarked size at which the revised engine wins. *)
let simplex_bench ~meta () =
  let module Simplex = Qp_lp.Simplex in
  (* Feasible at x = 0 (positive rhs), bounded by an all-ones capacity
     row; ~[nnz_per_row] structural nonzeros per row. *)
  let instance ~n ~seed =
    let rand = Random.State.make [| seed; n |] in
    let nvars = n and nrows = n + 1 in
    let nnz_per_row = 6 in
    let c =
      Array.init nvars (fun _ -> Float.of_int (1 + Random.State.int rand 9))
    in
    let rows =
      Array.init nrows (fun i ->
          if i = nrows - 1 then (Array.make nvars 1.0, Float.of_int (4 * n))
          else begin
            let a = Array.make nvars 0.0 in
            for _ = 1 to nnz_per_row do
              a.(Random.State.int rand nvars) <-
                Float.of_int (1 + Random.State.int rand 4)
            done;
            (a, Float.of_int (10 + Random.State.int rand 40))
          end)
    in
    (c, rows)
  in
  let objective = function
    | Simplex.Optimal s -> s.Simplex.objective
    | _ -> Float.nan
  in
  let sizes = [ 16; 32; 64; 128; 256; 512 ] in
  print_newline ();
  print_endline "==================================================";
  print_endline "== simplex engines: dense tableau vs revised";
  print_endline "==================================================";
  let results =
    List.map
      (fun n ->
        let c, rows = instance ~n ~seed:11 in
        (* the revised engine's sparse rows, built outside the timing *)
        let sparse_rows =
          Array.map (fun (a, b) -> (Qp_lp.Sparse.of_dense a, b)) rows
        in
        (* Small instances solve in microseconds; repeat until the
           timed block is long enough to trust, and report per-solve. *)
        let reps = max 1 (20_000_000 / (n * n * n)) in
        let run solve =
          ignore (Sys.opaque_identity (solve ()));
          let outcome, seconds =
            Timing.time (fun () ->
                let outcome = ref Simplex.Unbounded in
                for _ = 1 to reps do
                  outcome := solve ()
                done;
                !outcome)
          in
          (seconds /. Float.of_int reps, outcome)
        in
        let td, dense = run (Qp_lp_oracle.Dense.solve ~c ~rows) in
        let tr, revised = run (Simplex.solve ~c ~rows:sparse_rows) in
        let od = objective dense and orv = objective revised in
        if Float.abs (od -. orv) > 1e-6 *. Float.max 1.0 (Float.abs od)
        then begin
          Printf.eprintf "BUG: engines disagree at n=%d (%.9g vs %.9g)\n" n od
            orv;
          exit 1
        end;
        Printf.printf
          "  n=%-4d dense %8.4fs   revised %8.4fs   ratio %5.2fx   obj %.1f\n%!"
          n td tr (td /. Float.max 1e-9 tr) od;
        (n, td, tr))
      sizes
  in
  (* smallest size from which the revised engine wins at every larger
     benchmarked size too — a single noise blip at ~10 microseconds per
     solve must not count as the crossover *)
  let crossover =
    let arr = Array.of_list results in
    let best = ref None and streak = ref true in
    for i = Array.length arr - 1 downto 0 do
      let n, td, tr = arr.(i) in
      if !streak && tr < td then best := Some n else streak := false
    done;
    !best
  in
  (match crossover with
  | Some n -> Printf.printf "  crossover: revised wins from n=%d up\n" n
  | None -> Printf.printf "  crossover: not reached on these sizes\n");
  let oc = open_out "BENCH_simplex.json" in
  Printf.fprintf oc "{\n  %s,\n  \"crossover_n\": %s,\n  \"sizes\": ["
    (meta ())
    (match crossover with Some n -> string_of_int n | None -> "null");
  List.iteri
    (fun i (n, td, tr) ->
      Printf.fprintf oc
        "%s\n    { \"n\": %d, \"seconds_dense\": %.6f, \
         \"seconds_revised\": %.6f, \"speedup\": %.3f }"
        (if i = 0 then "" else ",")
        n td tr
        (td /. Float.max 1e-9 tr))
    results;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc;
  Printf.printf "  wrote BENCH_simplex.json\n%!"

(* --- warm-start benchmark ---------------------------------------------- *)

(* Times the CIP capacity sweep and the LPIP candidate sweep with warm
   starting disabled (every family member solved cold) and enabled (the
   optimal basis carried from member to member), and writes
   BENCH_warmstart.json. Pivot counts come from the "simplex.pivots"
   counter, so the comparison is meaningful even on a single-CPU box
   where wall time is noisy; "simplex.warm_wasted_pivots" adds the
   pivots of warm attempts that were abandoned for a cold re-solve,
   which "simplex.pivots" leaves out (reported, not gated). A final warm-started CIP run under
   Qp_lp_oracle.with_check re-solves every member on the dense oracle
   and records the mismatch count (must be 0: warm starting never
   changes answers). *)
let warmstart_bench ~meta ctx =
  let module Simplex = Qp_lp.Simplex in
  let inst = Context.instance ctx "skewed" in
  let h =
    V.apply ~rng:(Rng.create 1) (V.Uniform_val 100.0) inst.WI.hypergraph
  in
  ignore (H.classes h);
  (* Warm starting pays off proportionally to the sweep length, so the
     bench runs the fine grids (the library-default ε, the Full-profile
     candidate cap) rather than the Quick profile's coarsened ones —
     Quick's ε = 4 leaves a 3-point grid with nothing to warm-start.
     jobs = 1 keeps the pivot counters free of worker-scheduling noise
     on small machines. *)
  let cip () =
    ignore
      (Qp_core.Cip.solve_report
         ~options:
           { Qp_core.Cip.epsilon = 0.25; max_pivots = 200_000;
             time_budget = None; jobs = Some 1 }
         h)
  in
  let lpip () =
    ignore
      (Qp_core.Lpip.solve_report
         ~options:
           { Qp_core.Lpip.max_candidates = Some 48; max_pivots = 200_000;
             jobs = Some 1 }
         h)
  in
  print_newline ();
  print_endline "==================================================";
  print_endline "== warm-started LP sweeps: cold vs warm";
  print_endline "==================================================";
  let obs_was = Qp_obs.enabled () in
  let warm_was = Simplex.warm_starts () in
  let counter name =
    match List.assoc_opt name (Qp_obs.counters ()) with
    | Some n -> n
    | None -> 0
  in
  let results, mismatches =
    Fun.protect
      ~finally:(fun () ->
        Simplex.set_warm_starts warm_was;
        Qp_obs.set_enabled obs_was)
      (fun () ->
        Qp_obs.set_enabled true;
        let measure (name, f) =
          Simplex.set_warm_starts false;
          Qp_obs.reset ();
          let tc = snd (Timing.time f) in
          let pc = counter "simplex.pivots" in
          Simplex.set_warm_starts true;
          Qp_obs.reset ();
          let tw = snd (Timing.time f) in
          let pw = counter "simplex.pivots" in
          let hits = counter "simplex.warm_hit" in
          let misses = counter "simplex.warm_miss" in
          let saved = counter "simplex.warm_pivots_saved" in
          let wasted = counter "simplex.warm_wasted_pivots" in
          Printf.printf
            "  %-6s cold %8.3fs %7d pivots   warm %8.3fs %7d pivots   \
             pivots %5.2fx  wall %5.2fx   (%d hits, %d misses, %d wasted)\n%!"
            name tc pc tw pw
            (Float.of_int pc /. Float.max 1.0 (Float.of_int pw))
            (tc /. Float.max 1e-9 tw)
            hits misses wasted;
          (name, tc, pc, tw, pw, hits, misses, saved, wasted)
        in
        let results = List.map measure [ ("cip", cip); ("lpip", lpip) ] in
        (* correctness sentinel: warm-started CIP under the dense oracle *)
        Simplex.set_warm_starts true;
        let (), mismatches = Qp_lp_oracle.with_check cip in
        Printf.printf "  check: %d warm/cold mismatches over a CIP sweep\n%!"
          mismatches;
        (results, mismatches))
  in
  let oc = open_out "BENCH_warmstart.json" in
  Printf.fprintf oc "{\n  %s,\n  \"check_mismatches\": %d,\n  \"families\": ["
    (meta ()) mismatches;
  List.iteri
    (fun i (name, tc, pc, tw, pw, hits, misses, saved, wasted) ->
      Printf.fprintf oc
        "%s\n    { \"name\": %S, \"seconds_cold\": %.6f, \"pivots_cold\": %d,\n\
        \      \"seconds_warm\": %.6f, \"pivots_warm\": %d,\n\
        \      \"pivot_ratio\": %.3f, \"wall_speedup\": %.3f,\n\
        \      \"warm_hits\": %d, \"warm_misses\": %d, \"pivots_saved\": %d,\n\
        \      \"pivots_wasted\": %d }"
        (if i = 0 then "" else ",")
        name tc pc tw pw
        (Float.of_int pc /. Float.max 1.0 (Float.of_int pw))
        (tc /. Float.max 1e-9 tw)
        hits misses saved wasted)
    results;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc;
  Printf.printf "  wrote BENCH_warmstart.json\n%!"

(* --- serving-throughput benchmark ------------------------------------- *)

(* Stands a broker on the skewed workload (LPIP pricing), replays the
   full query set through the socket at increasing client counts, and
   writes BENCH_serve.json with quote-latency percentiles and
   throughput per level. Before any timing, one client walks every
   query and compares the served price against the broker's in-process
   oracle bit-for-bit — the latency numbers are only worth keeping if
   the answers are the one-shot answers. *)
let serve_bench ~meta ctx =
  let module SB = Qp_serve.Broker in
  let module SS = Qp_serve.Server in
  let module SP = Qp_serve.Protocol in
  print_newline ();
  print_endline "==================================================";
  print_endline "== serving throughput: qpricing serve under load";
  print_endline "==================================================";
  let inst = Context.instance ctx "skewed" in
  let broker, precompute =
    Timing.time (fun () ->
        SB.of_instance ~profile:(Context.profile ctx)
          ~model:(V.Uniform_val 100.0) ~pricing:"lpip" ~seed:(Context.seed ctx)
          inst)
  in
  let n = SB.queries broker in
  Printf.printf "  broker up: %d queries, %d items, precompute %.2fs\n%!" n
    (SB.items broker) precompute;
  (* snapshot checkpoint + crash recovery: save the precomputed state,
     load it back as a second broker, and bit-compare every quote.
     recovery_ms is the restart cost the chaos soak and the regression
     gate care about — it must stay far below the precompute. *)
  let snap_file =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qpserve-bench-%d.snap" (Unix.getpid ()))
  in
  let snap_config =
    { Qp_serve.Snapshot.workload = "skewed"; scale = WI.Default;
      support = None; seed = Context.seed ctx; model = V.Uniform_val 100.0;
      pricing = "lpip"; profile = Context.profile ctx }
  in
  let saved, save_s =
    Timing.time (fun () ->
        SB.save_snapshot ~file:snap_file ~config:snap_config broker)
  in
  (match saved with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "BUG: snapshot save failed: %s\n" msg;
      exit 1);
  let snapshot_save_ms = save_s *. 1000.0 in
  let snapshot_bytes = (Unix.stat snap_file).Unix.st_size in
  let recovered, recovery_s =
    match Timing.time (fun () -> SB.load_snapshot ~file:snap_file snap_config) with
    | Ok b, dt -> (b, dt)
    | Error err, _ ->
        Printf.eprintf "BUG: snapshot load failed: %s\n"
          (Qp_serve.Snapshot.describe_load_error err);
        exit 1
  in
  let recovery_ms = recovery_s *. 1000.0 in
  let recovery_identity_mismatches =
    let bad = ref 0 in
    for idx = 0 to n - 1 do
      if
        not
          (SB.same_quote (SB.quote_index broker idx)
             (SB.quote_index recovered idx))
      then incr bad
    done;
    !bad
  in
  (try Sys.remove snap_file with Sys_error _ -> ());
  if recovery_identity_mismatches > 0 then begin
    Printf.eprintf
      "BUG: %d recovered quotes differ from the live broker\n"
      recovery_identity_mismatches;
    exit 1
  end;
  Printf.printf
    "  snapshot: %d bytes, save %.1f ms, recovery %.1f ms (vs %.2fs \
     precompute), %d/%d quotes bit-identical after reload\n%!"
    snapshot_bytes snapshot_save_ms recovery_ms precompute n n;
  let listen =
    SS.Unix_socket
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "qpserve-bench-%d.sock" (Unix.getpid ())))
  in
  let finished = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        SS.serve ~should_stop:(fun () -> Atomic.get finished) listen broker)
  in
  let quote c idx =
    match SS.call c (SP.Price idx) with
    | Ok (SP.Quote_reply q) -> Some q
    | Ok _ | Error _ -> None
  in
  (* identity pass: every query, one client, bit-compared to the oracle *)
  let identity_mismatches =
    let c = SS.connect listen in
    Fun.protect ~finally:(fun () -> SS.close_client c) @@ fun () ->
    let bad = ref 0 in
    for idx = 0 to n - 1 do
      let expect = SB.quote_index broker idx in
      match quote c idx with
      | Some q when SB.same_quote q expect -> ()
      | Some _ | None -> incr bad
    done;
    !bad
  in
  if identity_mismatches > 0 then begin
    Printf.eprintf "BUG: %d served quotes differ from the broker oracle\n"
      identity_mismatches;
    exit 1
  end;
  Printf.printf "  identity: %d/%d served quotes bit-identical\n%!" n n;
  (* Client-side tallies across *every* pass (identity, warm-ups,
     timed): the METRICS cross-check below compares them against the
     broker's own counters, so nothing the clients did may go
     unaccounted. *)
  let total_quotes = ref n and total_errors = ref 0 in
  (* load levels: each client owns the round-robin slice idx ≡ c (mod
     clients), so every level prices the same 986 queries exactly once.
     One warm-up pass per level, then [runs_per_level] timed passes —
     the reported numbers are the median pass by throughput (single-
     shot timing on a shared container is far too noisy; BENCH history
     showed 4 clients "beating" 1). *)
  let runs_per_level = 3 in
  let run_pass clients =
    let per_client, seconds =
      Timing.time @@ fun () ->
      Qp_util.Parallel.map ~jobs:clients
        (fun c ->
          let conn = SS.connect listen in
          Fun.protect ~finally:(fun () -> SS.close_client conn) @@ fun () ->
          let lats = ref [] and errors = ref 0 and quotes = ref 0 in
          let idx = ref c in
          while !idx < n do
            let q0 = Timing.now_ns () in
            (match quote conn !idx with
            | Some _ -> incr quotes
            | None -> incr errors);
            lats := Timing.seconds_since q0 *. 1000.0 :: !lats;
            idx := !idx + clients
          done;
          (!lats, !quotes, !errors))
        (Array.init clients (fun c -> c))
    in
    let lats =
      Array.of_list
        (Array.to_list per_client |> List.concat_map (fun (l, _, _) -> l))
    in
    Array.sort Float.compare lats;
    let quotes = Array.fold_left (fun a (_, q, _) -> a + q) 0 per_client in
    let errors = Array.fold_left (fun a (_, _, e) -> a + e) 0 per_client in
    total_quotes := !total_quotes + quotes;
    total_errors := !total_errors + errors;
    let qps = Float.of_int quotes /. Float.max 1e-9 seconds in
    (lats, quotes, errors, seconds, qps)
  in
  let run_level clients =
    ignore (run_pass clients);
    (* warm-up *)
    let passes = List.init runs_per_level (fun _ -> run_pass clients) in
    let by_qps =
      List.sort
        (fun (_, _, _, _, a) (_, _, _, _, b) -> Float.compare a b)
        passes
    in
    let lats, quotes, errors, seconds, qps =
      List.nth by_qps (runs_per_level / 2)
    in
    let pct p = Qp_util.Stats.percentile_nearest lats p in
    Printf.printf
      "  clients=%d  %4d quotes in %6.2fs  %8.0f quotes/s   p50 %6.3fms  \
       p95 %6.3fms  p99 %6.3fms  (median of %d)%s\n%!"
      clients quotes seconds qps (pct 50.0) (pct 95.0) (pct 99.0)
      runs_per_level
      (if errors = 0 then "" else Printf.sprintf "  (%d errors)" errors);
    (clients, quotes, errors, seconds, qps, pct 50.0, pct 95.0, pct 99.0)
  in
  let results = List.map run_level [ 1; 2; 4; 8 ] in
  (* Scrape METRICS and cross-check the broker's view of the session
     against the client-side tallies: the quote counter and quote
     histogram must agree with what the clients actually pulled, and
     every request line must be accounted for. *)
  let module SM = Qp_serve.Metrics in
  let samples =
    let c = SS.connect listen in
    Fun.protect ~finally:(fun () -> SS.close_client c) @@ fun () ->
    match SS.scrape c with
    | Error e ->
        Printf.eprintf "BUG: METRICS scrape failed: %s\n" e;
        exit 1
    | Ok body -> (
        match SM.parse body with
        | Error e ->
            Printf.eprintf "BUG: METRICS body failed to parse: %s\n" e;
            exit 1
        | Ok samples -> samples)
  in
  let sample name =
    match SM.find samples name with
    | Some v -> v
    | None ->
        Printf.eprintf "BUG: METRICS body lacks %s\n" name;
        exit 1
  in
  let requests_total = sample "qp_serve_requests_total" in
  let quotes_total = sample "qp_serve_quotes_total" in
  let quote_count = sample "qp_serve_quote_seconds_count" in
  let request_count = sample "qp_serve_request_seconds_count" in
  let expect_requests = float_of_int (!total_quotes + !total_errors) in
  let consistent =
    quotes_total = float_of_int !total_quotes
    && quote_count = quotes_total
    && request_count = requests_total
    && requests_total = expect_requests
  in
  if not consistent then begin
    Printf.eprintf
      "BUG: server metrics disagree with client tallies: requests_total=%.0f \
       (client %d), quotes_total=%.0f (client %d), hist counts %.0f/%.0f\n"
      requests_total
      (!total_quotes + !total_errors)
      quotes_total !total_quotes request_count quote_count;
    exit 1
  end;
  let server_pct p =
    match SM.histogram_quantile samples "qp_serve_request_seconds" p with
    | Some s -> s *. 1000.0
    | None -> Float.nan
  in
  let sp50 = server_pct 50.0 and sp95 = server_pct 95.0 and sp99 = server_pct 99.0 in
  Printf.printf
    "  metrics: %.0f requests, %.0f quotes — matches client tallies; \
     server-side p50 <= %.3fms p95 <= %.3fms\n%!"
    requests_total quotes_total sp50 sp95;
  (* stop the loop even if the SHUTDOWN reply is eaten by a fault *)
  let c = SS.connect listen in
  ignore (SS.call c SP.Shutdown);
  SS.close_client c;
  Atomic.set finished true;
  Domain.join server;
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n  %s,\n  \"workload\": %S,\n  \"pricing\": %S,\n  \"queries\": %d,\n\
    \  \"identity_mismatches\": %d,\n  \"precompute_seconds\": %.6f,\n\
    \  \"snapshot\": { \"bytes\": %d, \"save_ms\": %.3f, \"recovery_ms\": \
     %.3f,\n    \"recovery_identity_mismatches\": %d },\n\
    \  \"runs_per_level\": %d,\n\
    \  \"metrics\": { \"requests_total\": %.0f, \"quotes_total\": %.0f,\n\
    \    \"counts_consistent\": true,\n\
    \    \"server_p50_ms\": %.6f, \"server_p95_ms\": %.6f, \"server_p99_ms\": \
     %.6f },\n\
    \  \"levels\": ["
    (meta ()) (SB.workload broker) (SB.pricing_key broker) n
    identity_mismatches precompute snapshot_bytes snapshot_save_ms recovery_ms
    recovery_identity_mismatches runs_per_level requests_total quotes_total
    sp50 sp95 sp99;
  List.iteri
    (fun i (clients, quotes, errors, seconds, qps, p50, p95, p99) ->
      Printf.fprintf oc
        "%s\n    { \"clients\": %d, \"quotes\": %d, \"errors\": %d,\n\
        \      \"seconds\": %.6f, \"quotes_per_sec\": %.1f,\n\
        \      \"p50_ms\": %.6f, \"p95_ms\": %.6f, \"p99_ms\": %.6f }"
        (if i = 0 then "" else ",")
        clients quotes errors seconds qps p50 p95 p99)
    results;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc;
  Printf.printf "  wrote BENCH_serve.json\n%!"

let pseudo_ids =
  [ "micro"; "parallel"; "conflict"; "simplex"; "warmstart"; "serve" ]

let () =
  let rec parse jobs trace ids = function
    | [] -> (jobs, trace, List.rev ids)
    | "--jobs" :: n :: rest -> parse (Some n) trace ids rest
    | arg :: rest
      when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
        parse (Some (String.sub arg 7 (String.length arg - 7))) trace ids rest
    | "--trace" :: file :: rest -> parse jobs (Some file) ids rest
    | arg :: rest
      when String.length arg > 8 && String.sub arg 0 8 = "--trace=" ->
        parse jobs (Some (String.sub arg 8 (String.length arg - 8))) ids rest
    | arg :: rest -> parse jobs trace (arg :: ids) rest
  in
  let jobs, trace, ids =
    parse None None [] (List.tl (Array.to_list Sys.argv))
  in
  (match jobs with
  | None -> ()
  | Some n -> (
      match int_of_string_opt n with
      | Some j when j >= 1 -> Unix.putenv "QP_JOBS" (string_of_int j)
      | Some _ | None ->
          Printf.eprintf "bad --jobs value %S (want a positive integer)\n" n;
          exit 2));
  (* "micro", "parallel" and "conflict" are pseudo-ids, usable alongside
     real ones. Every id is validated before anything runs, so a typo
     fails fast instead of after hours of benchmarks. *)
  let unknown =
    List.filter
      (fun id -> not (List.mem id pseudo_ids) && Registry.find id = None)
      ids
  in
  if unknown <> [] then begin
    Printf.eprintf "unknown id%s %s\nvalid experiment ids: %s\npseudo ids: %s\n"
      (if List.length unknown = 1 then "" else "s")
      (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
      (String.concat ", " Registry.ids)
      (String.concat ", " pseudo_ids);
    exit 2
  end;
  let micro = List.mem "micro" ids in
  let par = List.mem "parallel" ids in
  let conflict = List.mem "conflict" ids in
  let simplex = List.mem "simplex" ids in
  let warmstart = List.mem "warmstart" ids in
  let serve = List.mem "serve" ids in
  let exp_ids = List.filter (fun id -> not (List.mem id pseudo_ids)) ids in
  let entries =
    match exp_ids with
    | [] -> Registry.all
    | ids -> List.filter_map Registry.find ids
  in
  let ctx = Context.create () in
  (* Evaluated at each BENCH_*.json write, not once upfront, so the
     injection tallies reflect everything that ran before the file. *)
  let meta () = meta_json ctx in
  (match trace with
  | None -> ()
  | Some _ ->
      Qp_obs.set_enabled true;
      Qp_obs.reset ());
  let t0 = Timing.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      match trace with
      | None -> ()
      | Some path ->
          Qp_obs.write_chrome_trace path;
          Printf.eprintf "[trace: %d spans written to %s]\n%!"
            (Qp_obs.span_count ()) path)
    (fun () ->
      if exp_ids <> [] || ids = [] then run_experiments ctx entries;
      if conflict then conflict_bench ~meta ctx;
      if par then parallel_bench ~meta ctx;
      if simplex then simplex_bench ~meta ();
      if warmstart then warmstart_bench ~meta ctx;
      if serve then serve_bench ~meta ctx;
      if micro || ids = [] then microbenchmarks ctx);
  Printf.printf "\nTotal bench time: %.1fs\n" (Timing.seconds_since t0)
