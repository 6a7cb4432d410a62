(* Tests for the Qp_obs tracing layer: the determinism contract (merged
   span structure and counters bit-identical at any job count), the
   zero-cost disabled mode, and the trace → report round trip. *)

module Obs = Qp_obs
module Report = Qp_obs_report
module WI = Qp_experiments.Workload_instances
module Runner = Qp_experiments.Runner
module V = Qp_workloads.Valuations

let contains s affix =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* Tracing state is global; every test that enables it must restore the
   disabled default so the rest of the test binary runs untraced. *)
let with_tracing f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* --- basic span mechanics -------------------------------------------- *)

let test_span_nesting () =
  with_tracing @@ fun () ->
  Obs.with_span "outer" (fun () ->
      Obs.with_span "inner" (fun () -> Obs.event "tick");
      Obs.annotate (fun () -> [ ("k", Obs.Int 7) ]));
  let s = Obs.structure () in
  Alcotest.(check int) "two spans" 2 (Obs.span_count ());
  Alcotest.(check bool) "outer present" true
    (contains s "span outer");
  Alcotest.(check bool) "inner present" true
    (contains s "  span inner");
  Alcotest.(check bool) "event present" true
    (contains s "event tick");
  Alcotest.(check bool) "annotation lands on span end" true
    (contains s "k=7")

let test_span_end_on_exception () =
  with_tracing @@ fun () ->
  (try Obs.with_span "doomed" (fun () -> failwith "boom") with
  | Failure _ -> ());
  (* the span must still be closed: a second top-level span renders at
     nesting depth 0, not inside the broken one *)
  Obs.with_span "after" (fun () -> ());
  let s = Obs.structure () in
  Alcotest.(check bool) "later span at top level" true
    (contains s "\nspan after"
    || String.length s >= 10 && String.sub s 0 10 = "span after")

let test_counters_and_gauges () =
  with_tracing @@ fun () ->
  Obs.counter "c" 2;
  Obs.counter "c" 3;
  Obs.gauge_max "g" 1.5;
  Obs.gauge_max "g" 0.5;
  Alcotest.(check (list (pair string int))) "counter sums" [ ("c", 5) ]
    (Obs.counters ());
  match Obs.gauges () with
  | [ ("g", v) ] -> Alcotest.(check (float 1e-9)) "gauge is max" 1.5 v
  | other ->
      Alcotest.failf "unexpected gauges: %d entries" (List.length other)

(* --- disabled mode ---------------------------------------------------- *)

let test_disabled_records_nothing () =
  Obs.set_enabled false;
  Obs.reset ();
  let evaluated = ref false in
  Obs.with_span "invisible"
    ~args:(fun () ->
      evaluated := true;
      [ ("x", Obs.Int 1) ])
    (fun () ->
      Obs.event "ghost";
      Obs.counter "n" 1;
      Obs.gauge_max "m" 9.0);
  Alcotest.(check int) "no spans recorded" 0 (Obs.span_count ());
  Alcotest.(check (list (pair string int))) "no counters" []
    (Obs.counters ());
  Alcotest.(check bool) "no gauges" true (Obs.gauges () = []);
  Alcotest.(check bool) "arg thunks never evaluated" false !evaluated

(* --- determinism across job counts ------------------------------------ *)

let tpch = lazy (WI.tpch ~scale:WI.Tiny ~support:60 ~seed:11 ())

(* One full benchmark cell per job count; the merged span structure
   (labels, nesting, args, counters, gauges — everything but
   timestamps) must be bit-identical, PR-3's determinism discipline
   extended to traces. *)
let test_structure_bit_identical () =
  let inst = Lazy.force tpch in
  let trace jobs =
    with_tracing @@ fun () ->
    ignore
      (Runner.run_cell ~jobs ~n_runs:2 ~profile:Runner.Quick ~seed:5
         (V.Uniform_val 100.0) inst);
    let hist_counts =
      List.map (fun (l, s) -> (l, s.Obs.Hist.count)) (Obs.histograms ())
    in
    (Obs.structure (), hist_counts)
  in
  let base, base_counts = trace 1 in
  Alcotest.(check bool) "trace is non-trivial" true
    (String.length base > 200
    && contains base "span runner.cell"
    && contains base "simplex.solve");
  Alcotest.(check bool) "cell populated histograms" true (base_counts <> []);
  List.iter
    (fun jobs ->
      let s, counts = trace jobs in
      Alcotest.(check string)
        (Printf.sprintf "structure identical at jobs=%d" jobs)
        base s;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "histogram labels+counts identical at jobs=%d" jobs)
        base_counts counts)
    [ 2; 4 ]

(* --- chrome export and report round trip ------------------------------ *)

let test_report_round_trip () =
  let path = Filename.temp_file "qp_obs_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (with_tracing @@ fun () ->
   (* the instance is built inside the traced window so the trace also
      covers the conflict-set construction *)
   let inst = WI.tpch ~scale:WI.Tiny ~support:60 ~seed:12 () in
   ignore
     (Runner.run_cell ~jobs:2 ~n_runs:1 ~profile:Runner.Quick ~seed:5
        (V.Uniform_val 100.0) inst);
   Obs.write_chrome_trace path);
  match Report.of_file path with
  | Error msg -> Alcotest.failf "report failed to parse trace: %s" msg
  | Ok t ->
      let labels = List.map (fun s -> s.Report.label) (Report.spans t) in
      List.iter
        (fun expected ->
          Alcotest.(check bool)
            (Printf.sprintf "aggregates %s" expected)
            true (List.mem expected labels))
        [ "runner.cell"; "simplex.solve"; "conflict.build" ];
      Alcotest.(check bool) "simplex solves counted" true
        (List.mem_assoc "simplex.solves" (Report.counters t));
      let rendered = Report.render t in
      Alcotest.(check bool) "table mentions self ms" true
        (contains rendered "self ms")

(* --- latency histograms ----------------------------------------------- *)

let test_hist_bucketing () =
  let h = Obs.Hist.create () in
  Obs.Hist.record h 0;
  Obs.Hist.record h 1;
  Obs.Hist.record h 1000;
  let s = Obs.Hist.snapshot h in
  Alcotest.(check int) "count" 3 s.Obs.Hist.count;
  Alcotest.(check int) "sum" 1001 s.Obs.Hist.sum_ns;
  Alcotest.(check int) "min" 0 s.Obs.Hist.min_ns;
  Alcotest.(check int) "max" 1000 s.Obs.Hist.max_ns;
  Alcotest.(check int) "buckets sum to count" 3
    (Array.fold_left ( + ) 0 s.Obs.Hist.buckets);
  (* 1000 ns lands in the [512, 1024) bucket *)
  Alcotest.(check int) "1000ns bucket" 1 s.Obs.Hist.buckets.(9);
  let merged = Obs.Hist.merge s Obs.Hist.empty in
  Alcotest.(check bool) "merge with empty is identity" true (merged = s);
  let doubled = Obs.Hist.merge s s in
  Alcotest.(check int) "merge sums counts" 6 doubled.Obs.Hist.count;
  Alcotest.(check int) "merge keeps extrema" 1000 doubled.Obs.Hist.max_ns

let test_quantiles_monotone_and_clamped () =
  let h = Obs.Hist.create () in
  for i = 1 to 1000 do
    Obs.Hist.record h (i * 100)
  done;
  let s = Obs.Hist.snapshot h in
  let q p = Obs.Hist.quantile_ns s p in
  Alcotest.(check bool) "p50 <= p95" true (q 50.0 <= q 95.0);
  Alcotest.(check bool) "p95 <= p99" true (q 95.0 <= q 99.0);
  Alcotest.(check bool) "quantiles clamped to [min,max]" true
    (q 0.1 >= float s.Obs.Hist.min_ns && q 100.0 <= float s.Obs.Hist.max_ns);
  (* the median of 100..100_000 ns must sit in the right ballpark:
     bucket interpolation is approximate, but not 2x off *)
  Alcotest.(check bool) "p50 within a bucket of the true median" true
    (q 50.0 >= 25_000.0 && q 50.0 <= 100_000.0)

let test_spans_populate_histograms () =
  with_tracing @@ fun () ->
  for _ = 1 to 5 do
    Obs.with_span "t.unit" (fun () -> ())
  done;
  for _ = 1 to 3 do
    Obs.observe_ns "t.manual" 1024
  done;
  let hists = Obs.histograms () in
  let s label = List.assoc label hists in
  Alcotest.(check int) "five spans recorded" 5 (s "t.unit").Obs.Hist.count;
  let m = s "t.manual" in
  Alcotest.(check int) "manual count" 3 m.Obs.Hist.count;
  Alcotest.(check int) "manual sum" 3072 m.Obs.Hist.sum_ns;
  (* 1024 ns = 2^10 opens the [1024, 2048) bucket *)
  Alcotest.(check int) "manual bucket" 3 m.Obs.Hist.buckets.(10);
  (* histograms never leak into span args: the structure (and with it
     the cross-jobs bit-identity contract) stays duration-free *)
  Alcotest.(check bool) "structure has no histogram columns" false
    (contains (Obs.structure ()) "1024")

let test_disabled_no_histograms () =
  Obs.set_enabled false;
  Obs.reset ();
  Obs.with_span "t.invisible" (fun () -> ());
  Obs.observe_ns "t.manual" 99;
  Alcotest.(check bool) "no histograms while disabled" true
    (Obs.histograms () = [])

(* Deterministic observations must merge bit-identically whatever the
   job count — same labels, counts, sums, extrema and bucket vectors. *)
let test_hist_merge_bit_identical_across_jobs () =
  let observe jobs =
    with_tracing @@ fun () ->
    ignore
      (Qp_util.Parallel.map ~jobs
         (fun i ->
           Obs.observe_ns "bench.synthetic" ((i * 37) + 1);
           i)
         (Array.init 200 Fun.id));
    Obs.histograms ()
  in
  let base = observe 1 in
  Alcotest.(check int) "one label" 1 (List.length base);
  Alcotest.(check int) "all observations land" 200
    (List.assoc "bench.synthetic" base).Obs.Hist.count;
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "histograms bit-identical at jobs=%d" jobs)
        true
        (observe jobs = base))
    [ 2; 4 ]

let test_gc_attribution () =
  with_tracing @@ fun () ->
  Obs.with_span "t.alloc" (fun () ->
      ignore (Sys.opaque_identity (List.init 50_000 (fun i -> i + 1))));
  let s = List.assoc "t.alloc" (Obs.histograms ()) in
  Alcotest.(check bool) "allocation attributed to the span" true
    (s.Obs.Hist.gc_minor_words > 0)

(* --- report hardening: malformed inputs -------------------------------- *)

let with_temp_trace lines f =
  let path = Filename.temp_file "qp_obs_malformed" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  f path

let expect_error name lines =
  with_temp_trace lines @@ fun path ->
  match Report.of_file path with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected Error, got Ok" name

let test_of_file_malformed () =
  expect_error "empty file" [];
  expect_error "truncated JSON line"
    [ {|{"ph":"X","name":"lp.solve","ts":0,"du|} ];
  expect_error "non-numeric ts"
    [ {|{"ph":"i","name":"tick","ts":"yesterday"}|} ];
  expect_error "duration span without dur"
    [ {|{"ph":"X","name":"lp.solve","ts":0}|} ];
  expect_error "record without ph" [ {|{"name":"lp.solve","ts":0}|} ];
  expect_error "not JSON at all" [ "this is not a trace" ];
  (* a nonexistent path must also come back as Error, never an exception *)
  match Report.of_file "/nonexistent/qp_obs_trace.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonexistent path: expected Error"

(* --- report --diff ----------------------------------------------------- *)

let x_record name dur = Printf.sprintf {|{"ph":"X","name":%S,"ts":0,"dur":%d}|} name dur

let test_diff_flags_slowdown () =
  let old_lines =
    List.init 10 (fun _ -> x_record "lp.solve" 100)
    @ [ x_record "conflict.build" 50 ]
  in
  let new_lines =
    List.init 10 (fun _ -> x_record "lp.solve" 1000)
    @ [ x_record "conflict.build" 50 ]
  in
  with_temp_trace old_lines @@ fun old_path ->
  with_temp_trace new_lines @@ fun new_path ->
  (match Report.diff_files old_path new_path with
  | Error msg -> Alcotest.failf "diff_files: %s" msg
  | Ok d -> (
      match Report.diff_flagged d with
      | [ row ] ->
          Alcotest.(check string) "slow label flagged" "lp.solve"
            row.Report.dlabel;
          Alcotest.(check bool) "rendered verdict names the regression" true
            (contains (Report.render_diff d) "REGRESSION")
      | rows -> Alcotest.failf "expected exactly 1 flagged row, got %d"
                  (List.length rows)));
  (* identical traces: reported, never flagged *)
  match Report.diff_files old_path old_path with
  | Error msg -> Alcotest.failf "self-diff: %s" msg
  | Ok d ->
      Alcotest.(check int) "self-diff flags nothing" 0
        (List.length (Report.diff_flagged d));
      Alcotest.(check bool) "self-diff verdict is clean" true
        (contains (Report.render_diff d) "no regressions")

let test_report_renders_gauges () =
  let path = Filename.temp_file "qp_obs_gauge" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (with_tracing @@ fun () ->
   Obs.with_span "t.work" (fun () -> Obs.gauge_max "t.peak" 42.0);
   Obs.write_chrome_trace path);
  match Report.of_file path with
  | Error msg -> Alcotest.failf "gauge trace: %s" msg
  | Ok t ->
      (match Report.gauges t with
      | [ ("t.peak", v) ] -> Alcotest.(check (float 1e-9)) "gauge value" 42.0 v
      | other -> Alcotest.failf "unexpected gauges: %d" (List.length other));
      Alcotest.(check bool) "render shows the gauge table" true
        (contains (Report.render t) "gauges")

(* --- one clock: histograms and trace agree to the nanosecond ----------- *)

(* The value of ["key":] in a chrome-trace line, up to the next [stop]. *)
let field line key stop =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length pat and m = String.length line in
  let rec find i =
    if i + n > m then None
    else if String.sub line i n = pat then Some (i + n)
    else find (i + 1)
  in
  Option.map
    (fun i -> String.sub line i (String.index_from line i stop - i))
    (find 0)

(* Span durations reach the histograms as the exact difference of the
   span's own trace timestamps, so a traced run's per-label [sum_ns]
   must equal the sum of end - begin recovered from the export (µs with
   three decimals is exact ns). The run stays on one domain: spliced
   worker events can be clamped in the export, which is the one place
   the two may legitimately differ. *)
let test_hist_sums_match_trace () =
  let inst = Lazy.force tpch in
  let h =
    V.apply ~rng:(Qp_util.Rng.create 3) (V.Uniform_val 100.0)
      inst.WI.hypergraph
  in
  with_tracing @@ fun () ->
  ignore
    (Qp_core.Lpip.solve_report
       ~options:
         { (Runner.lpip_options Runner.Quick) with Qp_core.Lpip.jobs = Some 1 }
       h);
  ignore
    (Qp_core.Cip.solve_report
       ~options:
         { (Runner.cip_options Runner.Quick) with
           Qp_core.Cip.jobs = Some 1;
           time_budget = None;
         }
       h);
  let ns_of line =
    match field line "ts" ',' with
    | Some us -> Float.to_int (Float.round (float_of_string us *. 1e3))
    | None -> Alcotest.failf "no ts in %s" line
  in
  let sums = Hashtbl.create 16 in
  let stack = ref [] and last = ref 0 in
  List.iter
    (fun line ->
      match field line "ph" ',' with
      | Some "\"B\"" ->
          let ts = ns_of line in
          let label =
            match field line "name" ',' with
            | Some l -> String.sub l 1 (String.length l - 2)
            | None -> Alcotest.failf "unnamed span: %s" line
          in
          stack := (label, ts) :: !stack
      | Some "\"E\"" -> (
          let ts = ns_of line in
          Alcotest.(check bool) "timestamps never decrease" true (ts >= !last);
          last := ts;
          match !stack with
          | (label, t0) :: tl ->
              stack := tl;
              Hashtbl.replace sums label
                (ts - t0
                + Option.value (Hashtbl.find_opt sums label) ~default:0)
          | [] -> Alcotest.failf "unmatched span end: %s" line)
      | Some _ ->
          if String.length line > 0 && field line "ts" ',' <> None then begin
            let ts = ns_of line in
            Alcotest.(check bool) "timestamps never decrease" true (ts >= !last);
            last := ts
          end
      | None -> ())
    (Obs.to_chrome_lines ());
  Alcotest.(check int) "every span closed" 0 (List.length !stack);
  Alcotest.(check bool) "traced run has simplex spans" true
    (Hashtbl.mem sums "simplex.solve");
  List.iter
    (fun (label, (s : Obs.Hist.snapshot)) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: histogram sum_ns = trace end - begin" label)
        (Option.value (Hashtbl.find_opt sums label) ~default:(-1))
        s.Obs.Hist.sum_ns)
    (Obs.histograms ())

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "obs",
    [
      t "span nesting and annotations" test_span_nesting;
      t "span closed on exception" test_span_end_on_exception;
      t "counters sum, gauges max" test_counters_and_gauges;
      t "disabled mode records nothing" test_disabled_records_nothing;
      t "cell structure bit-identical across job counts"
        test_structure_bit_identical;
      t "trace file → report round trip" test_report_round_trip;
      t "histogram bucketing and merge" test_hist_bucketing;
      t "quantiles monotone and clamped" test_quantiles_monotone_and_clamped;
      t "spans populate per-label histograms" test_spans_populate_histograms;
      t "disabled mode records no histograms" test_disabled_no_histograms;
      t "histograms bit-identical across job counts"
        test_hist_merge_bit_identical_across_jobs;
      t "GC words attributed to spans" test_gc_attribution;
      t "report rejects malformed traces" test_of_file_malformed;
      t "report --diff flags a synthetic slowdown" test_diff_flags_slowdown;
      t "report renders gauges" test_report_renders_gauges;
      t "span histogram sums equal trace durations" test_hist_sums_match_trace;
    ] )
