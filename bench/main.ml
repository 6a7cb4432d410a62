(* Timing benchmarks of the pricing stack. Each writes one
   BENCH_<name>.json in the working directory.

   Usage: main.exe [--jobs N] [--trace FILE] BENCH...
   BENCH is one or more of conflict, parallel, simplex, warmstart and
   serve; they run in that order, whatever the order on the command
   line. "conflict" times the conflict-set construction per workload,
   "parallel" the worker pool at jobs=1 vs jobs=N, "simplex" the dense
   tableau oracle against the revised simplex across growing LP sizes,
   "warmstart" the CIP/LPIP sweeps cold vs warm-started, and "serve" a
   standing broker under load. No bench name, or an unknown one, exits 2
   with the list. --jobs N sets QP_JOBS for the whole process; --trace
   FILE records the whole run as Chrome trace-event JSONL (aggregate
   with 'qpricing report'). Every BENCH_*.json carries a "meta" block
   (git commit, QP_JOBS, profile, UTC timestamp) identifying the run.
   The paper's tables and figures are regenerated by 'qpricing
   experiment', not here. *)

module Context = Qp_experiments.Context
module WI = Qp_experiments.Workload_instances
module H = Qp_core.Hypergraph
module V = Qp_workloads.Valuations
module Rng = Qp_util.Rng
module Timing = Qp_util.Timing

(* --- run metadata for BENCH_*.json ----------------------------------- *)

(* Identifies a benchmark run: without the commit and job count a stored
   BENCH_*.json is not comparable to a fresh one. A tree with
   uncommitted changes reads "<commit>-dirty", so a file measured on
   such a tree does not pass for a measurement of its parent. *)
let git_commit () =
  try
    let ic =
      Unix.open_process_in
        "git describe --always --dirty --abbrev=40 2>/dev/null"
    in
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

let banner title =
  print_newline ();
  print_endline "==================================================";
  print_endline ("== " ^ title);
  print_endline "=================================================="

(* Writes [file] as one JSON object: the [head] fields (the meta block
   first), then [key] holding [rows], each an already-rendered object. *)
let write_json file ~head ~key rows =
  Out_channel.with_open_text file (fun oc ->
      Printf.fprintf oc "{\n  %s,\n  %S: [\n    %s\n  ]\n}\n" head key
        (String.concat ",\n    " rows));
  Printf.printf "  wrote %s\n%!" file

(* A bench that finds a wrong answer stops the run: its timings would
   measure broken code. *)
let bug fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "BUG: %s\n%!" msg;
      exit 1)
    fmt

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
  banner
    (Printf.sprintf "conflict-set construction: row vs columnar, jobs=1 vs %d"
       jobs_n);
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
        if check_mismatches > 0 then
          bug "%s row and columnar disagree on %d conflicts" key
            check_mismatches;
        let fp = fingerprint h_row in
        let fingerprints_equal =
          fp = fingerprint h_col1 && fp = fingerprint h_coln
        in
        if not fingerprints_equal then
          bug "%s hypergraph differs across engines/jobs" key;
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
  let float_array a =
    String.concat ", "
      (Array.to_list (Array.map (Printf.sprintf "%.6f") a))
  in
  Qp_experiments.Exp_runtime.build_breakdown Format.std_formatter ctx;
  write_json "BENCH_conflict.json"
    ~head:(Printf.sprintf "%s,\n  \"jobs_n\": %d" (meta ()) jobs_n)
    ~key:"workloads"
    (List.map
       (fun (key, (s_row : C.stats), (s_col1 : C.stats), (s_coln : C.stats),
             check_mismatches, speedup_columnar, fingerprints_equal) ->
      Printf.sprintf
        "{ \"workload\": %S, \"queries\": %d, \"support\": %d,\n\
        \      \"fallback_queries\": %d, \"failed_queries\": %d,\n\
        \      \"strategies\": { %s },\n\
        \      \"row_seconds\": %.6f, \"row_query_mean\": %.6f,\n\
        \      \"seconds_jobs_1\": %.6f, \"seconds_jobs_n\": %.6f,\n\
        \      \"speedup\": %.3f, \"speedup_columnar\": %.3f,\n\
        \      \"check_mismatches\": %d,\n\
        \      \"fingerprints_equal\": %b, \"jobs_used\": %d,\n\
        \      \"worker_busy_seconds\": [%s],\n\
        \      \"query_seconds_mean\": %.6f, \"query_seconds_max\": %.6f }"
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
       results)

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
  banner (Printf.sprintf "parallel layer: jobs=1 vs jobs=%d" jobs_n);
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
  write_json "BENCH_parallel.json"
    ~head:
      (Printf.sprintf "%s,\n  \"jobs\": %d,\n  \"pairs\": %d" (meta ())
         jobs_n parallel_pairs)
    ~key:"algorithms"
    (List.map
       (fun (name, (t1, min1, max1), (tn, minn, maxn)) ->
         Printf.sprintf
           "{ \"name\": %S, \"seconds_jobs_1\": %.6f, \
            \"min_jobs_1\": %.6f, \"max_jobs_1\": %.6f, \
            \"seconds_jobs_n\": %.6f, \"min_jobs_n\": %.6f, \
            \"max_jobs_n\": %.6f, \"speedup\": %.3f }"
           name t1 min1 max1 tn minn maxn
           (t1 /. Float.max 1e-9 tn))
       results)

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
  banner "simplex engines: dense tableau vs revised";
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
        then bug "engines disagree at n=%d (%.9g vs %.9g)" n od orv;
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
  write_json "BENCH_simplex.json"
    ~head:
      (Printf.sprintf "%s,\n  \"crossover_n\": %s" (meta ())
         (match crossover with Some n -> string_of_int n | None -> "null"))
    ~key:"sizes"
    (List.map
       (fun (n, td, tr) ->
         Printf.sprintf
           "{ \"n\": %d, \"seconds_dense\": %.6f, \
            \"seconds_revised\": %.6f, \"speedup\": %.3f }"
           n td tr
           (td /. Float.max 1e-9 tr))
       results)

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
  banner "warm-started LP sweeps: cold vs warm";
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
  write_json "BENCH_warmstart.json"
    ~head:(Printf.sprintf "%s,\n  \"check_mismatches\": %d" (meta ()) mismatches)
    ~key:"families"
    (List.map
       (fun (name, tc, pc, tw, pw, hits, misses, saved, wasted) ->
         Printf.sprintf
           "{ \"name\": %S, \"seconds_cold\": %.6f, \"pivots_cold\": %d,\n\
           \      \"seconds_warm\": %.6f, \"pivots_warm\": %d,\n\
           \      \"pivot_ratio\": %.3f, \"wall_speedup\": %.3f,\n\
           \      \"warm_hits\": %d, \"warm_misses\": %d, \"pivots_saved\": %d,\n\
           \      \"pivots_wasted\": %d }"
           name tc pc tw pw
           (Float.of_int pc /. Float.max 1.0 (Float.of_int pw))
           (tc /. Float.max 1e-9 tw)
           hits misses saved wasted)
       results)

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
  banner "serving throughput: qpricing serve under load";
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
  | Error msg -> bug "snapshot save failed: %s" msg);
  let snapshot_save_ms = save_s *. 1000.0 in
  let snapshot_bytes = (Unix.stat snap_file).Unix.st_size in
  let recovered, recovery_s =
    match Timing.time (fun () -> SB.load_snapshot ~file:snap_file snap_config) with
    | Ok b, dt -> (b, dt)
    | Error err, _ ->
        bug "snapshot load failed: %s"
          (Qp_serve.Snapshot.describe_load_error err)
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
  if recovery_identity_mismatches > 0 then
    bug "%d recovered quotes differ from the live broker"
      recovery_identity_mismatches;
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
  if identity_mismatches > 0 then
    bug "%d served quotes differ from the broker oracle" identity_mismatches;
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
    | Error e -> bug "METRICS scrape failed: %s" e
    | Ok body -> (
        match SM.parse body with
        | Error e -> bug "METRICS body failed to parse: %s" e
        | Ok samples -> samples)
  in
  let sample name =
    match SM.find samples name with
    | Some v -> v
    | None -> bug "METRICS body lacks %s" name
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
  if not consistent then
    bug
      "server metrics disagree with client tallies: requests_total=%.0f \
       (client %d), quotes_total=%.0f (client %d), hist counts %.0f/%.0f"
      requests_total
      (!total_quotes + !total_errors)
      quotes_total !total_quotes request_count quote_count;
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
  write_json "BENCH_serve.json"
    ~head:
      (Printf.sprintf
         "%s,\n  \"workload\": %S,\n  \"pricing\": %S,\n  \"queries\": %d,\n\
         \  \"identity_mismatches\": %d,\n  \"precompute_seconds\": %.6f,\n\
         \  \"snapshot\": { \"bytes\": %d, \"save_ms\": %.3f, \"recovery_ms\": \
          %.3f,\n    \"recovery_identity_mismatches\": %d },\n\
         \  \"runs_per_level\": %d,\n\
         \  \"metrics\": { \"requests_total\": %.0f, \"quotes_total\": %.0f,\n\
         \    \"counts_consistent\": true,\n\
         \    \"server_p50_ms\": %.6f, \"server_p95_ms\": %.6f, \"server_p99_ms\": \
          %.6f }"
         (meta ()) (SB.workload broker) (SB.pricing_key broker) n
         identity_mismatches precompute snapshot_bytes snapshot_save_ms
         recovery_ms recovery_identity_mismatches runs_per_level requests_total
         quotes_total sp50 sp95 sp99)
    ~key:"levels"
    (List.map
       (fun (clients, quotes, errors, seconds, qps, p50, p95, p99) ->
         Printf.sprintf
           "{ \"clients\": %d, \"quotes\": %d, \"errors\": %d,\n\
           \      \"seconds\": %.6f, \"quotes_per_sec\": %.1f,\n\
           \      \"p50_ms\": %.6f, \"p95_ms\": %.6f, \"p99_ms\": %.6f }"
           clients quotes errors seconds qps p50 p95 p99)
       results)

let benches =
  [ ("conflict", conflict_bench); ("parallel", parallel_bench);
    ("simplex", fun ~meta _ -> simplex_bench ~meta ());
    ("warmstart", warmstart_bench); ("serve", serve_bench) ]

let () =
  (* "--jobs=N" is "--jobs N", "--trace=FILE" is "--trace FILE" *)
  let args =
    List.concat_map
      (fun a ->
        match String.index_opt a '=' with
        | Some i when String.starts_with ~prefix:"--" a ->
            [ String.sub a 0 i; String.sub a (i + 1) (String.length a - i - 1) ]
        | Some _ | None -> [ a ])
      (List.tl (Array.to_list Sys.argv))
  in
  let rec parse jobs trace names = function
    | [] -> (jobs, trace, names)
    | "--jobs" :: n :: rest -> parse (Some n) trace names rest
    | "--trace" :: file :: rest -> parse jobs (Some file) names rest
    | arg :: rest -> parse jobs trace (arg :: names) rest
  in
  let jobs, trace, names = parse None None [] args in
  (match jobs with
  | None -> ()
  | Some n -> (
      match int_of_string_opt n with
      | Some j when j >= 1 -> Unix.putenv "QP_JOBS" (string_of_int j)
      | Some _ | None ->
          Printf.eprintf "bad --jobs value %S (want a positive integer)\n" n;
          exit 2));
  (* Every name is checked before anything runs, so a typo fails fast
     instead of after minutes of benchmarks. *)
  let unknown = List.filter (fun n -> not (List.mem_assoc n benches)) names in
  if names = [] || unknown <> [] then begin
    if unknown <> [] then
      Printf.eprintf "unknown bench%s %s\n"
        (if List.length unknown = 1 then "" else "es")
        (String.concat ", " (List.rev_map (Printf.sprintf "%S") unknown));
    Printf.eprintf
      "usage: main.exe [--jobs N] [--trace FILE] BENCH...\nbenches: %s\n\
       (the paper's tables and figures: qpricing experiment)\n"
      (String.concat ", " (List.map fst benches));
    exit 2
  end;
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
      List.iter
        (fun (name, run) -> if List.mem name names then run ~meta ctx)
        benches);
  Printf.printf "\nTotal bench time: %.1fs\n" (Timing.seconds_since t0)
