(* The pricing pipeline's end-to-end benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs one workload (see README.md for why each was chosen), checks
   every output, prints every metric by name with unit and direction,
   and ends with one JSON result line. --trace 0 reports the end-to-end
   metrics, measured with tracing off; --trace 1 reports the per-layer
   metrics, from repetitions run with Qp_obs tracing on, and the tracing
   overhead against the untraced repetitions of the same run. *)

module B = Qp_serve.Broker
module WI = Qp_experiments.Workload_instances

(* --- repetitions, traced and untraced --------------------------------- *)

(* In a traced run, odd repetitions run with tracing on and even ones
   with it off; the untraced ones give the overhead's baseline. *)
let traced ~trace i = trace && i mod 2 = 1

(* Each repetition starts from a compacted heap, so garbage left by the
   previous one does not land in its timings. *)
let in_window ~on f =
  Gc.compact ();
  if not on then f ()
  else begin
    Qp_obs.reset ();
    Qp_obs.set_enabled true;
    Fun.protect ~finally:(fun () -> Qp_obs.set_enabled false) f
  end

(* Per-layer samples: metric name, unit, direction, value. *)
type layer = string * string * [ `Lower | `Higher ] * float

let build_layers (b : Market.build) : layer list =
  let s = b.instance.WI.build_stats in
  let strategy k = Float.of_int (Option.value (List.assoc_opt k s.strategies) ~default:0) in
  let busy = Array.fold_left ( +. ) 0.0 s.worker_busy in
  [
    ("workloads.generate_s", "s", `Lower, b.generate_s);
    ("support.generate_s", "s", `Lower, b.support_s);
    ("conflict.query_p50_ms", "ms", `Lower, 1000.0 *. Measure.median s.query_seconds);
    ( "conflict.query_max_ms", "ms", `Lower,
      1000.0 *. Array.fold_left Float.max 0.0 s.query_seconds );
    ("conflict.strategy.grouped", "count", `Higher, strategy "grouped");
    ("conflict.strategy.rowwise", "count", `Higher, strategy "rowwise");
    ("conflict.failed_queries", "count", `Lower, Float.of_int (List.length s.failed_queries));
    ("parallel.busy_s", "s", `Lower, busy);
    ("parallel.utilization", "ratio", `Higher, busy /. (Float.of_int s.jobs *. s.elapsed));
    ("gc.minor_words.build", "words", `Lower, b.build_minor_words);
    ("gc.major_words.build", "words", `Lower, b.build_major_words);
  ]

(* Counters and self times of the traced solve just finished, read back
   from its trace file. *)
let simplex_layers ~dir ~rep : layer list =
  let file = Filename.concat dir (Printf.sprintf "solve-%d.trace.jsonl" rep) in
  Qp_obs.write_chrome_trace file;
  let spans =
    match Qp_obs_report.of_file file with
    | Ok t -> Qp_obs_report.spans t
    | Error e -> failwith ("solve trace: " ^ e)
  in
  let self label =
    List.fold_left
      (fun acc (s : Qp_obs_report.span_stat) ->
        if s.label = label then acc +. (s.self_us *. 1e-6) else acc)
      0.0 spans
  in
  let counter k = Float.of_int (Option.value (List.assoc_opt k (Qp_obs.counters ())) ~default:0) in
  let hits = counter "simplex.warm_hit" and misses = counter "simplex.warm_miss" in
  [
    ("simplex.pivots", "count", `Lower, counter "simplex.pivots");
    ( "simplex.warm_hit_ratio", "ratio", `Higher,
      if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0 );
    ("simplex.solve_self_s", "s", `Lower, self "simplex.solve");
    ("simplex.dual_phase_self_s", "s", `Lower, self "simplex.dual_phase");
  ]

let solve_layers (s : Market.solve) : layer list =
  List.map
    (fun (f : Market.family) -> ("solve." ^ f.fkey ^ "_s", "s", `Lower, f.seconds))
    s.results
  @ [
      ("hypergraph.classes_s", "s", `Lower, s.classes_s);
      ("gc.minor_words.solve", "words", `Lower, s.solve_minor_words);
      ("gc.major_words.solve", "words", `Lower, s.solve_major_words);
    ]

(* Reports the per-rep median of every layer metric, in first-seen
   order. *)
let report_layers report ~note (reps : layer list list) =
  match reps with
  | [] -> ()
  | first :: _ ->
      List.iter
        (fun (name, unit_, better, _) ->
          let values =
            List.concat_map
              (List.filter_map (fun (n, _, _, v) -> if n = name then Some v else None))
              reps
          in
          Report.layer report ~note name unit_ better (Measure.median_list values))
        first

let ratio_of_medians a b = Measure.median_list a /. Measure.median_list b

(* One line of samples above the table, in the order given. *)
let print_samples name l =
  Printf.printf "  %s: %s\n" name (String.concat " " (List.map (Printf.sprintf "%.4f") l))

(* Evenly interleaves [(count, step)] groups: the i-th of n steps of a
   group sits at (i + 1/2) / n of the run. *)
let interleave groups =
  List.concat_map
    (fun (n, step) ->
      List.init n (fun i -> ((Float.of_int i +. 0.5) /. Float.of_int n, fun () -> step i)))
    groups
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  |> List.map snd

(* The measured stages, interleaved so that each samples the whole run
   rather than one stretch of it: [builds] cold builds of one seed
   (fingerprints must match [first]), [solves] solves of [first]
   (revenues must agree bit for bit) and [slices] calls of [serve],
   which returns how to scale what it recorded. A [Speed] probe sits
   between every two stages (and between the timed calls of a solve),
   and every time is scaled to the reference speed. Returns the first
   solve and the lower quartiles of the untraced set-up, build and
   solve times. *)
let stages report kind ~first ~seed ~builds ~solves ~slices ~serve ~probes ~trace ~dir =
  let build_reps = ref [] and solve_reps = ref [] and first_solve = ref None in
  let build i =
    let on = traced ~trace i in
    let b, k =
      Speed.around probes (fun () -> in_window ~on (fun () -> Market.build kind ~seed))
    in
    Market.check_build report ~reference:first b;
    build_reps :=
      ( on, k *. (b.generate_s +. b.support_s), k *. b.build_s,
        if on then build_layers b else [] )
      :: !build_reps
  in
  let solve i =
    let on = traced ~trace i in
    let s, layers =
      in_window ~on (fun () ->
          let s = Market.solve ~probes first.Market.instance ~seed in
          (s, if on then solve_layers s @ simplex_layers ~dir ~rep:i else []))
    in
    let r = match !first_solve with Some r -> r | None -> first_solve := Some s; s in
    Market.check_solve report ~reference:r s;
    solve_reps := (on, s.solve_s, layers) :: !solve_reps
  in
  let serve i =
    let rescale, k = Speed.around probes (fun () -> serve i) in
    rescale k
  in
  List.iter (fun step -> step ()) (interleave [ (builds, build); (solves, solve); (slices, serve) ]);
  let build_reps = List.rev !build_reps and solve_reps = List.rev !solve_reps in
  let pick on l = List.filter_map (fun (o, v) -> if o = on then Some v else None) l in
  let setup = List.map (fun (o, s, _, _) -> (o, s)) build_reps in
  let build = List.map (fun (o, _, b, _) -> (o, b)) build_reps in
  let solve = List.map (fun (o, s, _) -> (o, s)) solve_reps in
  if trace then begin
    report_layers report ~note:"median of traced builds"
      (pick true (List.map (fun (o, _, _, l) -> (o, l)) build_reps));
    report_layers report ~note:"median of traced solves"
      (pick true (List.map (fun (o, _, l) -> (o, l)) solve_reps));
    Report.layer report ~note:"traced / untraced build_s" "trace.overhead_build"
      "ratio" `Lower (ratio_of_medians (pick true build) (pick false build));
    Report.layer report ~note:"traced / untraced solve_s" "trace.overhead_solve"
      "ratio" `Lower (ratio_of_medians (pick true solve) (pick false solve))
  end;
  let low l = Measure.lower_quartile (Array.of_list (pick false l)) in
  List.iter
    (fun (name, l) -> print_samples (name ^ " samples, scaled") (pick false l))
    [ ("setup_s", setup); ("build_s", build); ("solve_s", solve) ];
  print_samples "speed probes s, in run order" (List.rev !probes);
  (Option.get !first_solve, low setup, low build, low solve)

let report_revenue report (s : Market.solve) =
  List.iter
    (fun k ->
      Report.e2e report ~note:"revenue / sum of valuations" ("revenue_norm." ^ k)
        "ratio" `Higher
        ((Market.find s k).revenue /. s.sum_valuations))
    [ "lpip"; "cip"; "layering"; "capped"; "xos" ]

let report_serve report (t : Serve.tally) =
  let ms q s = 1000.0 *. Measure.quantile (Measure.to_array s) q in
  let n s = Printf.sprintf "%d samples, scaled" s.Measure.len in
  Report.e2e report ~note:(n t.price_s) "price_p50_ms" "ms" `Lower (ms 0.5 t.price_s);
  Report.e2e report ~note:(n t.price_s) "price_p99_ms" "ms" `Lower (ms 0.99 t.price_s);
  Report.e2e report ~note:(n t.quote_s) "quote_p50_ms" "ms" `Lower (ms 0.5 t.quote_s);
  Report.e2e report ~note:(n t.quote_s) "quote_p99_ms" "ms" `Lower (ms 0.99 t.quote_s);
  Report.e2e report
    ~note:(Printf.sprintf "%d requests in %.2f scaled s" (Serve.requests t) t.elapsed)
    "serve_rps" "1/s" `Higher
    (Float.of_int (Serve.requests t) /. t.elapsed)

(* The broker-side per-layer metrics, from its METRICS exposition. *)
let report_server_view report (v : Serve.server_view) (t : Serve.tally) =
  let client_p50 = Measure.median (Measure.to_array t.all_s) in
  let note = "broker METRICS histogram" in
  Report.layer report ~note "server.request_p50_ms" "ms" `Lower (1000.0 *. v.request_p50_s);
  Report.layer report ~note "server.request_p99_ms" "ms" `Lower (1000.0 *. v.request_p99_s);
  Report.layer report ~note:"client p50 - server p50" "server.wait_p50_ms" "ms" `Lower
    (1000.0 *. (client_p50 -. v.request_p50_s));
  Report.layer report ~note "serve.errors" "count" `Lower v.errors_total;
  Report.layer report ~note "serve.shed" "count" `Lower v.shed_total

let report_call_timings report broker sqls next =
  let parse, index, sql = Serve.call_timings broker sqls next ~n:2000 in
  let note = "median over 2000 requests of the mix" in
  Report.layer report ~note "broker.quote_sql_ms" "ms" `Lower (1000.0 *. sql);
  Report.layer report ~note "broker.quote_index_us" "us" `Lower (1e6 *. index);
  Report.layer report ~note "protocol.parse_us" "us" `Lower (1e6 *. parse)

let precompute report (instance : WI.t) ~seed =
  let broker, seconds =
    Measure.time (fun () ->
        Qp_obs.with_span "bench.broker.of_instance" (fun () ->
            B.of_instance ~model:Settings.model ~pricing:"lpip" ~seed instance))
  in
  Report.layer report ~note:"Broker.of_instance" "broker.precompute_s" "s" `Lower seconds;
  broker

let sqls (instance : WI.t) =
  Array.of_list (List.map Qp_relational.Query.to_sql instance.WI.queries)

(* --- the workloads ---------------------------------------------------- *)

(* Repetition counts are a fixed function of --seconds (never of
   measured time), so every run does the same work. Each stage gets a
   share of the run; the divisors are rough per-repetition costs on a
   2-CPU x86 machine. *)
let reps ~seconds ~trace share cost =
  let n = max 1 (int_of_float (Float.round (Float.of_int seconds *. share /. cost))) in
  if trace then max 2 (n + (n mod 2)) else n

(* How a workload spends its run. [serving] marks the workload whose
   subject is the server process: its set-up is the server's start-up
   (five of them, lower quartile) and its memory the server's after
   start-up (median of the five). *)
type plan = {
  kind : Market.kind;
  builds : float * float;  (** share of the run, rough seconds per build *)
  solves : float * float;  (** share of the run, rough seconds per solve *)
  serve : float;  (** share of the run spent serving the mix *)
  serving : bool;
}

let plans =
  [
    ( "market-ssb",
      { kind = Market.Ssb; builds = (0.15, 1.3); solves = (0.5, 10.5); serve = 0.35;
        serving = false } );
    ( "serve-skewed",
      { kind = Skewed; builds = (0.1, 0.3); solves = (0.4, 2.0); serve = 0.35;
        serving = true } );
  ]

let run report plan ~seed ~seconds ~trace ~dir =
  let market_seed = Settings.instance_seed in
  (* A first, unreported build warms the process up (heap growth, page
     faults); it is the reference the others must reproduce, and the
     market the broker oracle stands on. *)
  let first = in_window ~on:false (fun () -> Market.build plan.kind ~seed:market_seed) in
  Market.check_build report ~reference:first first;
  let instance = first.instance in
  let oracle = precompute report instance ~seed:market_seed in
  let sqls = sqls instance in
  let next = Serve.mix ~seed ~queries:(Array.length sqls) in
  (* The server builds the same market from the same seed. *)
  let spawns = if plan.serving && not trace then 5 else 1 in
  let probes = ref [] and starts = ref [] and start_rss = ref [] in
  let rec start k =
    let file ext = Filename.concat dir (Printf.sprintf "server-%d.%s" k ext) in
    let (p, seconds), f =
      Speed.around probes (fun () ->
          Serve.spawn ~workload:(Market.key plan.kind) ~seed:market_seed
            ~socket:(Filename.concat dir "serve.sock") ~log:(file "log")
            ~trace_file:(if trace then Some (file "trace.jsonl") else None))
    in
    starts := (f *. seconds) :: !starts;
    start_rss := Measure.peak_rss_mb p.pid :: !start_rss;
    Report.op report true;
    if k + 1 = spawns then p
    else begin
      Report.check report (Serve.shutdown p) "a server did not drain and exit 0";
      start (k + 1)
    end
  in
  let p = start 0 in
  if plan.serving then begin
    print_samples "server start-up s, scaled" (List.rev !starts);
    print_samples "server VmHWM MiB after start-up" (List.rev !start_rss)
  end;
  (match Serve.info p with
  | Ok (Qp_serve.Protocol.Info_reply i) ->
      Report.check report
        (i.queries = B.queries oracle && i.items = B.items oracle
       && i.seed = market_seed && i.pricing = "lpip"
       && i.workload = Market.key plan.kind)
        "the server stands on another instance than the benchmark's"
  | _ -> Report.check report false "INFO failed");
  p.control <- p.control + 1;
  (* Serving runs in slices of about a second, spread over the run. *)
  let serve_s = plan.serve *. Float.of_int seconds in
  let slices = max 1 (int_of_float (Float.round serve_s)) in
  let t = Serve.tally () in
  let count (share, cost) = reps ~seconds ~trace share cost in
  let builds = count plan.builds and solves = count plan.solves in
  let solved, setup_s, build_s, solve_s =
    stages report plan.kind ~first ~seed:market_seed ~builds ~solves ~slices ~probes
      ~trace ~dir ~serve:(fun _ ->
        let m = Serve.mark t in
        Serve.closed_loop report p oracle sqls next t
          ~seconds:(serve_s /. Float.of_int slices);
        Serve.rescale t m)
  in
  if trace then
    Report.layer report ~note:(Printf.sprintf "median of %d probes" (List.length !probes))
      "speed.kernel_ms" "ms" `Lower (1000.0 *. Measure.median_list !probes);
  Report.check report
    (B.pricing oracle = (Market.find solved "lpip").pricing)
    "the broker's LPIP pricing differs from the benchmark's";
  (match Serve.scrape p with
  | Error e -> Report.check report false ("METRICS: " ^ e)
  | Ok text -> (
      match Serve.server_view text with
      | Error e -> Report.check report false e
      | Ok v ->
          Serve.check_view report v t ~control:p.control;
          report_server_view report v t));
  let rss_server = Measure.peak_rss_mb p.pid in
  Report.check report (Serve.shutdown p) "the server did not drain and exit 0";
  if plan.serving then
    Report.e2e report
      ~note:(Printf.sprintf "lower quartile of %d spawns to HEALTH serving, scaled" spawns)
      "setup_s" "s" `Lower (Measure.lower_quartile (Array.of_list !starts))
  else
    Report.e2e report ~note:(Printf.sprintf "lower quartile of %d, dataset + support, scaled" builds)
      "setup_s" "s" `Lower setup_s;
  Report.e2e report ~note:(Printf.sprintf "lower quartile of %d cold builds, scaled" builds)
    "build_s" "s" `Lower build_s;
  Report.e2e report ~note:(Printf.sprintf "lower quartile of %d, seven families, scaled" solves)
    "solve_s" "s" `Lower solve_s;
  if plan.serving then
    Report.e2e report
      ~note:
        (Printf.sprintf "VmHWM of the server after start-up, median of %d; %.1f after serving"
           spawns rss_server)
      "peak_rss_mb" "MiB" `Lower (Measure.median_list !start_rss)
  else
    Report.e2e report ~note:"VmHWM of this process" "peak_rss_mb" "MiB" `Lower
      (Measure.peak_rss_mb (Unix.getpid ()));
  report_revenue report solved;
  report_serve report t;
  if trace then report_call_timings report oracle sqls next;
  Market.check_arbitrage report solved

(* --- command line ----------------------------------------------------- *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" (List.map fst plans)
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  let seed = int "seed" and seconds = int "seconds" in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let plan = match List.assoc_opt workload plans with Some p -> p | None -> usage () in
  if seconds < 1 then usage ();
  Unix.putenv "QP_JOBS" (string_of_int Settings.jobs);
  (* A stopped benchmark still stops its servers (see [Serve.live]). *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let dir = Filename.concat ".perfbench-run" (string_of_int (Unix.getpid ())) in
  (try Sys.mkdir ".perfbench-run" 0o755 with Sys_error _ -> ());
  Sys.mkdir dir 0o755;
  Printf.printf "perfbench %s, %s\n" workload
    (String.concat ", "
       (List.map (fun (k, v) -> k ^ " " ^ v) (Settings.describe ~seed)));
  let report = Report.create () in
  run report plan ~seed ~seconds ~trace ~dir;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  (try Sys.rmdir ".perfbench-run" with Sys_error _ -> ());
  Report.print report ~trace
