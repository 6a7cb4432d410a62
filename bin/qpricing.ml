(* qpricing — command-line front end for the query-pricing library.

   Subcommands:
     list        — algorithms and experiments available
     inspect     — build a workload instance and print its hypergraph
     price       — run one pricing algorithm on a workload + valuations
     run         — one full benchmark cell (build + every algorithm)
     quote       — price one SQL query against the broker serve stands up
     serve       — the persistent pricing broker on a socket
     probe       — send raw request lines to a running broker
     experiment  — regenerate one or more of the paper's tables/figures
     report      — aggregate a --trace file into a self/total-time table
     demo        — a small end-to-end broker session on the world dataset

   inspect, price, run and experiment accept --trace FILE, which records
   the whole invocation through Qp_obs and writes a Chrome trace-event
   JSONL file (see docs/OBSERVABILITY.md). *)

open Cmdliner

module WI = Qp_experiments.Workload_instances
module Context = Qp_experiments.Context
module Runner = Qp_experiments.Runner
module Registry = Qp_experiments.Registry
module H = Qp_core.Hypergraph
module P = Qp_core.Pricing
module V = Qp_workloads.Valuations
module Rng = Qp_util.Rng
module Broker = Qp_market.Broker

(* --- shared arguments ------------------------------------------------ *)

let workload_arg =
  let doc = "Workload: skewed, uniform, tpch or ssb." in
  Arg.(required & pos 0 (some (enum (List.map (fun k -> (k, k)) WI.keys))) None
       & info [] ~docv:"WORKLOAD" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let support_arg =
  Arg.(value & opt (some int) None
       & info [ "support" ] ~docv:"N" ~doc:"Support-set size |S|.")

let scale_arg =
  let doc = "Instance scale: default or tiny (fast, for smoke tests)." in
  Arg.(value & opt (enum [ ("default", WI.Default); ("tiny", WI.Tiny) ]) WI.Default
       & info [ "scale" ] ~doc)

let profile_arg =
  let doc = "Benchmark profile: quick or full (paper-like settings)." in
  Arg.(value & opt (enum [ ("quick", Runner.Quick); ("full", Runner.Full) ]) Runner.Quick
       & info [ "profile" ] ~doc)

let jobs_arg =
  let doc =
    "Worker-pool size for the parallel solvers (sets QP_JOBS; default: \
     one less than the number of cores)."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let set_jobs = function
  | Some j when j >= 1 -> Unix.putenv "QP_JOBS" (string_of_int j)
  | Some j ->
      Printf.eprintf "--jobs must be >= 1 (got %d)\n" j;
      exit 2
  | None -> ()

let trace_arg =
  let doc =
    "Record a trace of the whole invocation and write it to $(docv) as \
     Chrome trace-event JSONL (load in Perfetto; aggregate with \
     'qpricing report')."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let inject_arg =
  let doc =
    "Arm a deterministic fault (repeatable; adds to QP_FAULTS). $(docv) is \
     SITE:KIND[:p=F][:nth=N][:seed=N] — sites: simplex.pivot, parallel.task, \
     conflict.query, runner.cell; kinds: fail, nan, stall. See \
     docs/ROBUSTNESS.md."
  in
  Arg.(value & opt_all string [] & info [ "inject" ] ~docv:"SPEC" ~doc)

let set_injections specs =
  List.iter
    (fun spec ->
      match Qp_fault.configure spec with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "--inject: %s\n" msg;
          exit 2)
    specs

(* Tracing wraps the whole command so the trace also covers instance
   construction; the file is written even when the traced code raises,
   so a crashed run still leaves its evidence behind. *)
let with_trace file f =
  match file with
  | None -> f ()
  | Some path ->
      Qp_obs.set_enabled true;
      Qp_obs.reset ();
      Fun.protect
        ~finally:(fun () ->
          Qp_obs.write_chrome_trace path;
          Printf.eprintf "[trace: %d spans written to %s]\n%!"
            (Qp_obs.span_count ()) path)
        f

let default_model = V.Uniform_val 100.0

let model_arg =
  let parse s =
    match String.split_on_char ':' (String.lowercase_ascii s) with
    | [ "uniform"; k ] -> Ok (V.Uniform_val (float_of_string k))
    | [ "zipf"; a ] -> Ok (V.Zipf_val (float_of_string a))
    | [ "exp"; k ] -> Ok (V.Scaled_exp (float_of_string k))
    | [ "normal"; k ] -> Ok (V.Scaled_normal (float_of_string k))
    | [ "additive"; k ] ->
        Ok (V.Additive { k = int_of_string k; dtilde = V.D_uniform })
    | [ "additive-binomial"; k ] ->
        Ok (V.Additive { k = int_of_string k; dtilde = V.D_binomial })
    | _ ->
        Error
          (`Msg
             "expected MODEL like uniform:100, zipf:1.5, exp:0.5, normal:1, \
              additive:100 or additive-binomial:100")
    | exception _ -> Error (`Msg "bad numeric parameter in MODEL")
  in
  let print fmt m = Format.pp_print_string fmt (V.describe m) in
  Arg.(value & opt (conv (parse, print)) default_model
       & info [ "model" ] ~docv:"MODEL" ~doc:"Valuation model (see qpricing list).")

let build_instance workload scale support seed =
  Printf.printf "building %s instance (this samples the support and all \
                 conflict sets)...\n%!" workload;
  WI.build workload ~scale ?support ~seed ()

(* The valuations [V.apply ~rng:(Rng.create seed)] draws on [inst], or
   exit 2 naming the model when they are not finite: exp:200 puts the
   mean |e|^200 past max_float, which Hypergraph.with_valuations would
   reject with an uncaught exception. *)
let finite_draws ~seed model (inst : WI.t) =
  let v = V.draw ~rng:(Rng.create seed) model inst.WI.hypergraph in
  if not (Array.for_all Float.is_finite v) then begin
    Printf.eprintf "--model %s: valuations are not finite on the %s instance\n"
      (V.describe model) inst.WI.key;
    exit 2
  end;
  v

(* The standing broker of [serve] and [quote]: the instance build under
   the "serve.load" span, the finite-draws check, then the precompute. *)
let serve_broker ~workload ~scale ~support ~seed ~model ~profile ~pricing =
  let instance =
    Qp_obs.with_span "serve.load"
      ~args:(fun () -> [ ("workload", Qp_obs.Str workload) ])
      (fun () -> WI.build workload ~scale ?support ~seed ())
  in
  ignore (finite_draws ~seed model instance);
  Qp_serve.Broker.of_instance ~profile ~model ~pricing ~seed instance

(* Where [serve] listens and [probe] connects: --tcp wins over --socket;
   [None] when neither is given. *)
let endpoint_arg =
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:
               "Unix socket path of the broker (serve's default: \
                qpricing-<pid>.sock in the system temp dir).")
  in
  let tcp_arg =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT"
             ~doc:"Use 127.0.0.1:$(docv) instead of a Unix socket.")
  in
  let endpoint socket tcp =
    match (tcp, socket) with
    | Some port, _ -> Some (Qp_serve.Server.Tcp { host = "127.0.0.1"; port })
    | None, Some path -> Some (Qp_serve.Server.Unix_socket path)
    | None, None -> None
  in
  Term.(const endpoint $ socket_arg $ tcp_arg)

(* --- list ------------------------------------------------------------ *)

let list_cmd =
  let run () =
    print_endline "Pricing families (§5, plus the capped extension):";
    List.iter
      (fun (s : Qp_core.Algorithms.spec) ->
        Printf.printf "  %-10s %s\n" s.key s.label)
      (Qp_core.Algorithms.registry ());
    print_endline "\nWorkloads (§6.2): skewed, uniform, tpch, ssb";
    print_endline "\nValuation models (§6.3):";
    print_endline "  uniform:K  zipf:A  exp:K  normal:K  additive:K  additive-binomial:K";
    print_endline "\nExperiments (tables & figures):";
    List.iter
      (fun (e : Registry.entry) -> Printf.printf "  %-18s %s\n" e.id e.title)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List algorithms, workloads and experiments.")
    Term.(const run $ const ())

(* --- inspect ---------------------------------------------------------- *)

let inspect_cmd =
  let run workload scale support seed jobs inject trace =
    set_jobs jobs;
    set_injections inject;
    with_trace trace @@ fun () ->
    let inst = build_instance workload scale support seed in
    let h = inst.WI.hypergraph in
    Printf.printf "%s\n" inst.WI.label;
    Printf.printf "  support items n = %d\n" (H.n_items h);
    Printf.printf "  hyperedges m    = %d\n" (H.m h);
    Printf.printf "  max degree B    = %d\n" (H.max_degree h);
    Printf.printf "  max edge size k = %d\n" (H.max_edge_size h);
    Printf.printf "  avg edge size   = %.2f\n" (H.avg_edge_size h);
    Printf.printf "  classes         = %d\n" (H.classes h).H.n_classes;
    print_endline "  conflict-set construction:";
    Format.printf "%a" Qp_market.Conflict.pp_stats inst.WI.build_stats;
    let sizes = Array.map (fun (e : H.edge) -> Array.length e.items) (H.edges h) in
    print_endline "  hyperedge size distribution (log counts):";
    print_string
      (Qp_util.Histogram.render ~log_scale:true
         (Qp_util.Histogram.create ~buckets:12 sizes))
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Build a workload's pricing instance and print it.")
    Term.(const run $ workload_arg $ scale_arg $ support_arg $ seed_arg
          $ jobs_arg $ inject_arg $ trace_arg)

(* --- price ------------------------------------------------------------ *)

let price_cmd =
  let algorithm_arg =
    let keys = List.map (fun k -> (k, k)) ("all" :: Qp_core.Algorithms.keys) in
    Arg.(value & opt (enum keys) "all"
         & info [ "algorithm"; "a" ] ~doc:"Algorithm key, or 'all'.")
  in
  let run workload scale support seed model algorithm profile jobs inject
      trace =
    set_jobs jobs;
    set_injections inject;
    with_trace trace @@ fun () ->
    let inst = build_instance workload scale support seed in
    let h = H.with_valuations inst.WI.hypergraph (finite_draws ~seed model inst) in
    let total = Float.max 1e-9 (H.sum_valuations h) in
    let specs =
      if algorithm = "all" then Runner.algorithms profile
      else
        [
          Qp_core.Algorithms.find ~lpip_options:(Runner.lpip_options profile)
            ~cip_options:(Runner.cip_options profile) algorithm;
        ]
    in
    Printf.printf "%s under %s (sum of valuations %.1f):\n" inst.WI.label
      (V.describe model) total;
    List.iter
      (fun (spec : Qp_core.Algorithms.spec) ->
        let pricing, dt = Qp_util.Timing.time (fun () -> spec.solve h) in
        let revenue = P.revenue pricing h in
        let sold = List.length (P.sold_edges pricing h) in
        Printf.printf
          "  %-14s revenue %10.2f (normalized %.3f)  sold %4d/%d  %.2fs\n%!"
          spec.label revenue (revenue /. total) sold (H.m h) dt)
      specs;
    Printf.printf "  %-14s %10.2f (normalized %.3f)\n" "subadd-bound"
      (Qp_core.Bounds.subadditive_bound h)
      (Qp_core.Bounds.subadditive_bound h /. total)
  in
  Cmd.v
    (Cmd.info "price"
       ~doc:"Run pricing algorithms on a workload under a valuation model.")
    Term.(const run $ workload_arg $ scale_arg $ support_arg $ seed_arg
          $ model_arg $ algorithm_arg $ profile_arg $ jobs_arg $ inject_arg
          $ trace_arg)

(* --- run: one full benchmark cell ------------------------------------ *)

let run_cmd =
  let run workload scale support seed model profile jobs inject trace =
    set_jobs jobs;
    set_injections inject;
    with_trace trace @@ fun () ->
    let inst = build_instance workload scale support seed in
    ignore (finite_draws ~seed model inst);
    match
      Qp_util.Timing.time (fun () ->
          Runner.run_cell_result ~profile ~seed model inst)
    with
    | Error f, _ ->
        Printf.eprintf "%s\n" (Runner.pp_cell_failure f);
        exit 1
    | Ok cell, dt ->
        Printf.printf "%s under %s (%d run%s, %.1fs):\n" cell.Runner.instance
          cell.Runner.model
          (Runner.runs profile)
          (if Runner.runs profile = 1 then "" else "s")
          dt;
        print_string
          (Qp_util.Text_table.render
             ~header:[ "algorithm"; "revenue"; "normalized"; "seconds" ]
             (List.map
                (fun (m : Runner.measurement) ->
                  [
                    m.Runner.algorithm;
                    Printf.sprintf "%.2f" m.Runner.revenue;
                    Printf.sprintf "%.3f" m.Runner.normalized;
                    Printf.sprintf "%.3f" m.Runner.seconds;
                  ])
                cell.Runner.measurements));
        List.iter
          (fun (m : Runner.measurement) ->
            match m.Runner.degraded with
            | None -> ()
            | Some d -> Printf.printf "! %s: %s\n" m.Runner.algorithm d)
          cell.Runner.measurements;
        Printf.printf "subadd-bound (normalized) %.3f\n" cell.Runner.subadditive
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one full benchmark cell: build the instance, draw \
          valuations, run every algorithm, print the measurements. With \
          --trace, the cell's full execution (conflict-set build, every \
          algorithm, every simplex solve) is recorded.")
    Term.(const run $ workload_arg $ scale_arg $ support_arg $ seed_arg
          $ model_arg $ profile_arg $ jobs_arg $ inject_arg $ trace_arg)

(* --- report: aggregate a trace file ----------------------------------- *)

let report_cmd =
  let trace_file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE" ~doc:"Trace file written by --trace.")
  in
  let diff_arg =
    Arg.(value & opt (some file) None
         & info [ "diff" ] ~docv:"OLD"
             ~doc:
               "Compare TRACE against the older trace $(docv): per-label \
                self-time/count/p95 deltas, flagging regressions beyond \
                --threshold. Exits 1 when any label is flagged.")
  in
  let threshold_arg =
    Arg.(value & opt float 25.0
         & info [ "threshold" ] ~docv:"PCT"
             ~doc:
               "Relative regression threshold for --diff, in percent \
                (a label is flagged when self time or p95 grew by more \
                than $(docv)%% and more than 100 us).")
  in
  let run path diff threshold =
    match diff with
    | None -> (
        match Qp_obs_report.report_file path with
        | Ok rendered -> print_string rendered
        | Error msg ->
            Printf.eprintf "cannot aggregate %s: %s\n" path msg;
            exit 2)
    | Some old_path -> (
        match
          Qp_obs_report.diff_files ~threshold_pct:threshold old_path path
        with
        | Error msg ->
            Printf.eprintf "cannot diff: %s\n" msg;
            exit 2
        | Ok d ->
            print_string (Qp_obs_report.render_diff d);
            if Qp_obs_report.diff_flagged d <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate a --trace file into a per-span self-time/total-time \
          table with p50/p95/max latency, counters, gauges and event \
          counts. With --diff OLD, compare two traces instead and flag \
          per-label regressions.")
    Term.(const run $ trace_file_arg $ diff_arg $ threshold_arg)

(* --- quote: price raw SQL against a broker -------------------------- *)

let quote_cmd =
  let sql_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"SQL" ~doc:"Query to price (the workload dialect).")
  in
  let run workload seed sql =
    Printf.printf "loading %s (tiny) and precomputing lpip pricing...\n%!"
      workload;
    let broker =
      serve_broker ~workload ~scale:WI.Tiny ~support:None ~seed
        ~model:default_model ~profile:Runner.Quick ~pricing:"lpip"
    in
    match Qp_serve.Broker.quote_sql broker sql with
    | Error msg ->
        Printf.eprintf "parse error: %s\n" msg;
        exit 2
    | Ok q ->
        print_endline
          (Qp_serve.Protocol.print_response (Qp_serve.Protocol.Quote_reply q))
  in
  Cmd.v
    (Cmd.info "quote"
       ~doc:
         "Quote a SQL query's arbitrage-free price against the broker \
          $(b,serve) would stand up for the named workload at tiny scale \
          (lpip pricing, default model, same seed); prints the reply a \
          served QUOTE returns.")
    Term.(const run $ workload_arg $ seed_arg $ sql_arg)

(* --- serve: the persistent pricing broker ---------------------------- *)

let serve_cmd =
  let module SB = Qp_serve.Broker in
  let module SS = Qp_serve.Server in
  let module SP = Qp_serve.Protocol in
  let pricing_arg =
    let keys = List.map (fun k -> (k, k)) Qp_core.Algorithms.keys in
    Arg.(value & opt (enum keys) "lpip"
         & info [ "pricing" ]
             ~doc:
               "Pricing family to precompute and serve: ubp, uip, lpip, cip, \
                layering, xos or capped.")
  in
  let max_requests_arg =
    Arg.(value & opt (some int) None
         & info [ "max-requests" ] ~docv:"N"
             ~doc:"Stop (drain and exit) after handling $(docv) request lines.")
  in
  let smoke_arg =
    Arg.(value & opt (some int) None
         & info [ "smoke" ] ~docv:"N"
             ~doc:
               "Self-test mode: spawn an in-process client, request $(docv) \
                quotes over the socket, check each against the broker's own \
                pricing bit-for-bit, shut down, and exit non-zero on any \
                mismatch.")
  in
  let snapshot_arg =
    Arg.(value & opt (some string) None
         & info [ "snapshot" ] ~docv:"FILE"
             ~doc:
               "Crash-recovery checkpoint: restore the precomputed state \
                from $(docv) when it matches this invocation's parameters \
                (bit-identical quotes, milliseconds instead of the full \
                precompute), otherwise recompute and write $(docv) for the \
                next restart. Corrupt/stale/foreign-version files are \
                refused with a typed reason, never trusted.")
  in
  let max_conns_arg =
    Arg.(value & opt (some int) None
         & info [ "max-conns" ] ~docv:"N"
             ~doc:
               "Admission control: with more than $(docv) open connections, \
                shed PRICE/QUOTE with ERR overloaded (cheap verbs still \
                answer). Default: unlimited.")
  in
  let idle_timeout_arg =
    Arg.(value & opt float 60.0
         & info [ "idle-timeout" ] ~docv:"SEC"
             ~doc:
               "Reap connections idle for $(docv) seconds with a typed ERR \
                timeout (monotonic clock); 0 disables.")
  in
  let write_deadline_arg =
    Arg.(value & opt float 10.0
         & info [ "write-deadline" ] ~docv:"SEC"
             ~doc:
               "Drop a connection whose buffered replies the client has not \
                accepted within $(docv) seconds (a stalled reader); 0 \
                disables.")
  in
  let high_water_arg =
    Arg.(value & opt int (1 lsl 20)
         & info [ "high-water" ] ~docv:"BYTES"
             ~doc:
               "Pending-work high-water mark: past $(docv) buffered \
                request/response bytes, shed PRICE/QUOTE with ERR \
                overloaded until the backlog drains.")
  in
  (* The smoke client runs in its own domain while the select loop owns
     the main one; quote replies must match the broker oracle to the
     bit. With faults armed, typed ERR replies are the expected
     degradation and only clean replies are checked. *)
  let smoke_client n listen broker =
    let c = SS.connect listen in
    Fun.protect ~finally:(fun () -> SS.close_client c) @@ fun () ->
    let total = SB.queries broker in
    let ok = ref 0 and faulted = ref 0 and mismatched = ref 0 in
    let tolerate = Qp_fault.enabled () in
    let control req =
      match SS.call c req with
      | Ok (SP.Error_reply _) when tolerate -> ()
      | Ok (SP.Pong | SP.Bye | SP.Info_reply _ | SP.Stats_reply _) -> ()
      | Ok _ | Error _ -> incr mismatched
    in
    control SP.Ping;
    control SP.Info;
    for i = 0 to n - 1 do
      let idx = if total = 0 then 0 else i * 7919 mod total in
      match SS.call c (SP.Price idx) with
      | Ok (SP.Quote_reply q) ->
          if SB.same_quote q (SB.quote_index broker idx) then incr ok
          else if Float.is_nan q.SP.price && tolerate then incr faulted
          else incr mismatched
      | Ok (SP.Error_reply _) when tolerate -> incr faulted
      | Ok _ | Error _ -> incr mismatched
    done;
    control SP.Stats;
    control SP.Shutdown;
    (!ok, !faulted, !mismatched)
  in
  let run workload scale support seed model pricing profile endpoint
      max_requests smoke snapshot max_conns idle_timeout write_deadline
      high_water jobs inject trace =
    set_jobs jobs;
    set_injections inject;
    with_trace trace @@ fun () ->
    let listen =
      match endpoint with
      | Some listen -> listen
      | None ->
          SS.Unix_socket
            (Filename.concat (Filename.get_temp_dir_name ())
               (Printf.sprintf "qpricing-%d.sock" (Unix.getpid ())))
    in
    let endpoint =
      match listen with
      | SS.Unix_socket path -> path
      | SS.Tcp { host; port } -> Printf.sprintf "%s:%d" host port
    in
    let config =
      { Qp_serve.Snapshot.workload; scale; support; seed; model; pricing;
        profile }
    in
    let build_fresh () =
      Printf.printf "loading %s and precomputing %s pricing...\n%!" workload
        pricing;
      serve_broker ~workload ~scale ~support ~seed ~model ~profile ~pricing
    in
    let broker =
      match snapshot with
      | None -> build_fresh ()
      | Some file -> (
          match Qp_util.Timing.time (fun () -> SB.load_snapshot ~file config) with
          | Ok b, dt ->
              Printf.printf "restored from snapshot %s in %.1f ms\n%!" file
                (dt *. 1000.0);
              b
          | Error err, _ ->
              Printf.printf "snapshot %s refused: %s; recomputing\n%!" file
                (Qp_serve.Snapshot.describe_load_error err);
              let b = build_fresh () in
              (match SB.save_snapshot ~file ~config b with
              | Ok () ->
                  Printf.printf "snapshot checkpointed to %s (%d bytes)\n%!"
                    file
                    (try (Unix.stat file).Unix.st_size with _ -> 0)
              | Error msg ->
                  Printf.eprintf "snapshot write failed: %s\n%!" msg);
              b)
    in
    Printf.printf "serving %d queries over %d items at %s\n%!"
      (SB.queries broker) (SB.items broker) endpoint;
    (* SIGTERM/SIGINT request a graceful drain: the select loop notices
       the flag, stops accepting, flushes every pending reply, and only
       then exits 0 — so an orchestrator's stop never truncates a
       response mid-line. *)
    let stop = Atomic.make false in
    (try
       let drain = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
       Sys.set_signal Sys.sigterm drain;
       Sys.set_signal Sys.sigint drain
     with Invalid_argument _ | Sys_error _ -> ());
    let opt_pos v = if v > 0.0 then Some v else None in
    let serve_loop extra_stop =
      SS.serve ?max_requests ?max_conns
        ?idle_timeout:(opt_pos idle_timeout)
        ?write_deadline:(opt_pos write_deadline)
        ~max_pending_bytes:high_water
        ~should_stop:(fun () -> Atomic.get stop || extra_stop ())
        listen broker
    in
    match smoke with
    | None ->
        serve_loop (fun () -> false);
        Printf.printf "drained cleanly\n%!"
    | Some n ->
        (* should_stop backstops the SHUTDOWN reply: even if a fault
           eats it, the loop stops once the client domain finishes. *)
        let finished = Atomic.make false in
        let client =
          Domain.spawn (fun () ->
              Fun.protect
                ~finally:(fun () -> Atomic.set finished true)
                (fun () -> smoke_client n listen broker))
        in
        serve_loop (fun () -> Atomic.get finished);
        let ok, faulted, mismatched = Domain.join client in
        Printf.printf "smoke: %d quotes ok, %d faulted, %d mismatched\n" ok
          faulted mismatched;
        if mismatched > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Start the persistent pricing broker: load the workload, \
          precompute one pricing family, and answer PRICE/QUOTE requests \
          over a newline-delimited socket protocol (see docs/SERVING.md).")
    Term.(const run $ workload_arg $ scale_arg $ support_arg $ seed_arg
          $ model_arg $ pricing_arg $ profile_arg $ endpoint_arg
          $ max_requests_arg $ smoke_arg $ snapshot_arg $ max_conns_arg
          $ idle_timeout_arg $ write_deadline_arg $ high_water_arg $ jobs_arg
          $ inject_arg $ trace_arg)

(* --- probe ------------------------------------------------------------- *)

(* The line client of the chaos soak. Server's reader tells a
   connection that died mid-line (expected while the soak kill -9s the
   broker; reported on stderr, exit 0) from a complete reply line that
   fails to parse (corruption; exit 3). *)
let probe_cmd =
  let module SP = Qp_serve.Protocol in
  let module SS = Qp_serve.Server in
  let retries_arg =
    Arg.(value & opt int 100
         & info [ "retries" ] ~docv:"N"
             ~doc:
               "Connection attempts, 20 ms apart, before giving up \
                (a probe racing a just-restarted broker wins).")
  in
  let requests_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"REQUEST"
             ~doc:
               "Request lines to send in order (default: read lines from \
                stdin). Replies are echoed to stdout verbatim.")
  in
  let run endpoint retries requests =
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    let listen =
      match endpoint with
      | Some listen -> listen
      | None ->
          Printf.eprintf "probe: need --socket PATH or --tcp PORT\n";
          exit 2
    in
    let c =
      try SS.connect ~retries listen
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "probe: cannot connect: %s\n" (Unix.error_message e);
        exit 1
    in
    let corrupt = ref 0 in
    (* Echo the next complete reply line; [None] once the connection
       has died, with the note on stderr. *)
    let reply () =
      match SS.read_line c with
      | SS.Line line ->
          print_endline line;
          Some line
      | SS.Cut _ ->
          Printf.eprintf "probe: connection died mid-reply (truncated line)\n";
          None
      | SS.Closed ->
          Printf.eprintf "probe: broker closed the connection\n";
          None
    in
    let check_parse line =
      match SP.parse_response line with
      | Ok _ -> ()
      | Error msg ->
          incr corrupt;
          Printf.eprintf "probe: corrupt reply %S: %s\n" line msg
    in
    (* One request and its reply; [false] once the connection is gone. *)
    let process line =
      if not (SS.send_line c line) then begin
        Printf.eprintf "probe: broker gone before %S was sent\n" line;
        false
      end
      else if SP.parse_request line = Ok SP.Metrics then
        (* Body lines are raw Prometheus text, not protocol responses;
           read through the terminator line (or a one-line ERR). *)
        let rec body line =
          String.trim line = SP.metrics_terminator
          || match reply () with Some l -> body l | None -> false
        in
        match reply () with
        | Some l
          when String.starts_with ~prefix:"ERR" (String.uppercase_ascii l) ->
            check_parse l;
            true
        | Some l -> body l
        | None -> false
      else
        match reply () with
        | Some l -> check_parse l; true
        | None -> false
    in
    let rec feed = function
      | line :: rest -> if process line then feed rest
      | [] -> ()
    in
    feed (if requests = [] then In_channel.input_lines stdin else requests);
    SS.close_client c;
    if !corrupt > 0 then exit 3
  in
  Cmd.v
    (Cmd.info "probe"
       ~doc:
         "Send raw request lines to a running broker and echo the replies. \
          A connection that dies mid-exchange is reported on stderr and \
          exits 0 (expected under chaos); a complete reply line that fails \
          to parse is corruption and exits 3.")
    Term.(const run $ endpoint_arg $ retries_arg $ requests_arg)

(* --- experiment ------------------------------------------------------- *)

let experiment_cmd =
  let ids_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids.")
  in
  let run ids profile seed jobs inject trace =
    set_jobs jobs;
    set_injections inject;
    with_trace trace @@ fun () ->
    let ctx = Context.create ~profile ~seed () in
    (* every id is checked before any runs: a typo fails fast, not after
       minutes of experiments *)
    let entries =
      match ids with
      | [] -> Registry.all
      | ids ->
          List.filter_map
            (fun id ->
              match Registry.find id with
              | Some e -> Some e
              | None ->
                  Printf.eprintf "unknown experiment %S (see qpricing list)\n" id;
                  exit 2)
            ids
    in
    List.iter
      (fun (e : Registry.entry) ->
        Format.printf "@.== %s (%s) ==@." e.title e.id;
        let (), seconds =
          Qp_util.Timing.time (fun () -> e.run Format.std_formatter ctx)
        in
        Format.printf "[%s completed in %.1fs]@." e.id seconds)
      entries
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate the paper's tables and figures (all, or by id).")
    Term.(const run $ ids_arg $ profile_arg $ seed_arg $ jobs_arg $ inject_arg
          $ trace_arg)

(* --- demo ------------------------------------------------------------- *)

let demo_cmd =
  let run seed =
    let module World = Qp_workloads.World in
    let rng = Rng.create seed in
    let db = World.generate ~rng ~config:World.tiny_config () in
    let broker = Broker.create ~seed ~support_size:150 db in
    let queries = Qp_workloads.World_queries.base_templates db in
    List.iteri
      (fun i q -> Broker.add_buyer broker ~valuation:(10.0 +. Float.of_int i) q)
      queries;
    Broker.build broker;
    let _ = Broker.price broker ~algorithm:"lpip" in
    Printf.printf "expected revenue from the registered workload: %.2f\n"
      (Broker.expected_revenue broker);
    let fresh =
      Qp_relational.Query.make ~name:"fresh"
        ~from:[ "Country" ]
        ~where:
          Qp_relational.Expr.(eq (col "Continent") (str "Europe"))
        [ Qp_relational.Query.Aggregate (Qp_relational.Query.Count_star, "cnt") ]
    in
    Printf.printf "quote for a fresh query %S: %.2f\n"
      (Qp_relational.Query.to_sql fresh)
      (Broker.quote broker fresh);
    (match Broker.purchase broker ~budget:1000.0 fresh with
    | `Sold (price, answer) ->
        Printf.printf "purchased for %.2f; answer has %d row(s)\n" price
          (Qp_relational.Result_set.row_count answer)
    | `Declined price -> Printf.printf "declined at %.2f\n" price);
    Printf.printf "revenue collected: %.2f\n" (Broker.revenue_collected broker)
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"A small end-to-end broker session (world dataset).")
    Term.(const run $ seed_arg)

let () =
  let info =
    Cmd.info "qpricing" ~version:"1.0.0"
      ~doc:"Revenue maximization for query pricing (VLDB 2019 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            inspect_cmd;
            price_cmd;
            run_cmd;
            quote_cmd;
            serve_cmd;
            probe_cmd;
            experiment_cmd;
            report_cmd;
            demo_cmd;
          ]))
