module Hypergraph = Qp_core.Hypergraph
module Pricing = Qp_core.Pricing
module Algorithms = Qp_core.Algorithms
module Bounds = Qp_core.Bounds
module Valuations = Qp_workloads.Valuations
module Rng = Qp_util.Rng
module Text_table = Qp_util.Text_table

type profile = Quick | Full

let runs = function Quick -> 1 | Full -> 5

let lpip_options = function
  | Quick ->
      { Qp_core.Lpip.max_candidates = Some 12; max_pivots = 60_000; jobs = None }
  | Full ->
      { Qp_core.Lpip.max_candidates = Some 48; max_pivots = 200_000; jobs = None }

(* The paper itself relaxes CIP's ε (up to 3-4) on the big workloads to
   bound its runtime (§6.4); Quick does the same and additionally caps
   the pivots per welfare LP, skipping capacities whose LP runs over. *)
let cip_options = function
  | Quick ->
      { Qp_core.Cip.epsilon = 4.0; max_pivots = 30_000; time_budget = Some 25.0;
        jobs = None }
  | Full ->
      { Qp_core.Cip.epsilon = 0.5; max_pivots = 200_000; time_budget = Some 600.0;
        jobs = None }

let algorithms profile =
  Algorithms.all ~lpip_options:(lpip_options profile)
    ~cip_options:(cip_options profile) ()

type measurement = {
  algorithm : string;
  revenue : float;
  normalized : float;
  seconds : float;
  degraded : string option;
}

type cell = {
  instance : string;
  model : string;
  sum_valuations : float;
  subadditive : float;
  measurements : measurement list;
  build : Qp_market.Conflict.stats;
}

type cell_failure = {
  failed_instance : string;
  failed_model : string;
  attempts : int;
  error : string;
}

let run_once ~specs h =
  let solved = Hashtbl.create 8 in
  List.map
    (fun (spec : Algorithms.spec) ->
      Qp_obs.with_span ("algo." ^ spec.key) @@ fun () ->
      (* XOS-LPIP+CIP combines the two vectors the run just computed,
         so it is synthesized from them rather than re-solved (the
         paper's §6.4 makes the same observation when timing it). *)
      let (pricing, degraded), seconds =
        Qp_util.Timing.time (fun () ->
            match
              ( spec.key,
                Hashtbl.find_opt solved "lpip",
                Hashtbl.find_opt solved "cip" )
            with
            | "xos", Some lpip, Some cip -> Qp_core.Xos.synthesize ~lpip ~cip h
            | _ -> spec.solve_report h)
      in
      Hashtbl.replace solved spec.key pricing;
      let revenue = Pricing.revenue pricing h in
      Qp_obs.annotate (fun () -> [ ("revenue", Qp_obs.Float revenue) ]);
      (spec.label, revenue, seconds, degraded))
    specs

let run_cell ?(attempt = 0) ?jobs ?n_runs ~profile ~seed model instance =
  (* The cell's fault key is derived from its identity (instance x
     model), not from any execution order, so a spec fires on the same
     cells whatever the sweep's parallel schedule. *)
  if Qp_fault.enabled () then
    Qp_fault.maybe_fail ~attempt
      ~key:
        (Qp_fault.site_key
           (instance.Workload_instances.label ^ "/" ^ Valuations.describe model))
      "runner.cell";
  Qp_obs.with_span "runner.cell"
    ~args:(fun () ->
      [
        ("instance", Qp_obs.Str instance.Workload_instances.label);
        ("model", Qp_obs.Str (Valuations.describe model));
      ])
  @@ fun () ->
  let specs = algorithms profile in
  let n_runs = Option.value n_runs ~default:(runs profile) in
  let rng = Rng.create seed in
  (* Runs are independent tasks: each draws its valuations from an
     [Rng.split] keyed by the run index, so the draw is a function of
     (seed, run) alone and survives any scheduling order. The merge
     below folds per-run results in run order, reproducing the
     sequential loop's floating-point accumulation exactly. *)
  let per_run =
    Qp_util.Parallel.map ?jobs
      (fun run ->
        Qp_obs.with_span "runner.run"
          ~args:(fun () -> [ ("run", Qp_obs.Int run) ])
        @@ fun () ->
        let h =
          Valuations.apply
            ~rng:(Rng.split rng (Printf.sprintf "val-%d" run))
            model instance.Workload_instances.hypergraph
        in
        let total = Float.max 1e-9 (Hypergraph.sum_valuations h) in
        (total, Bounds.subadditive_bound h /. total, run_once ~specs h))
      (Array.init n_runs (fun i -> i + 1))
  in
  let totals = Hashtbl.create 8 in
  let degraded_by = Hashtbl.create 8 in
  let sum_vals = ref 0.0 and subadd = ref 0.0 in
  Array.iter
    (fun (total, bound_n, measurements) ->
      sum_vals := !sum_vals +. total;
      subadd := !subadd +. bound_n;
      List.iter
        (fun (label, revenue, seconds, degraded) ->
          let rev_n, sec, count =
            Option.value (Hashtbl.find_opt totals label) ~default:(0.0, 0.0, 0)
          in
          Hashtbl.replace totals label
            (rev_n +. (revenue /. total), sec +. seconds, count + 1);
          match degraded with
          | None -> ()
          | Some (m : Qp_core.Degrade.marker) ->
              let first, n =
                Option.value
                  (Hashtbl.find_opt degraded_by label)
                  ~default:(m, 0)
              in
              Hashtbl.replace degraded_by label (first, n + 1))
        measurements)
    per_run;
  let measurements =
    List.map
      (fun (spec : Algorithms.spec) ->
        let rev_n, sec, count = Hashtbl.find totals spec.label in
        let c = Float.of_int count in
        let degraded =
          match Hashtbl.find_opt degraded_by spec.label with
          | None -> None
          | Some (m, n) ->
              Some
                (if n = count then Qp_core.Degrade.describe m
                 else
                   Printf.sprintf "%s (%d/%d runs)" (Qp_core.Degrade.describe m)
                     n count)
        in
        {
          algorithm = spec.label;
          normalized = rev_n /. c;
          revenue = rev_n /. c *. (!sum_vals /. Float.of_int n_runs);
          seconds = sec /. c;
          degraded;
        })
      specs
  in
  (* The cover-LP estimate can undershoot what a pricing actually
     achieved (see {!Qp_core.Bounds}); clamp so the reported bar stays
     an upper envelope of the measurements, as in the paper's plots. *)
  let best_measured =
    List.fold_left (fun acc m -> Float.max acc m.normalized) 0.0 measurements
  in
  {
    instance = instance.Workload_instances.label;
    model = Valuations.describe model;
    sum_valuations = !sum_vals /. Float.of_int n_runs;
    subadditive = Float.max best_measured (!subadd /. Float.of_int n_runs);
    measurements;
    build = instance.Workload_instances.build_stats;
  }

(* A cell that raises (an injected fault, a worker crash) is retried
   once after a short backoff with [attempt = 1] — deterministic faults
   re-draw on the new attempt — and otherwise becomes a structured
   failure so the surrounding sweep continues with partial results. *)
let run_cell_result ?jobs ?n_runs ?(retry_backoff = 0.05) ~profile ~seed model
    instance =
  match run_cell ~attempt:0 ?jobs ?n_runs ~profile ~seed model instance with
  | cell -> Ok cell
  | exception first_exn ->
      let first = Printexc.to_string first_exn in
      Qp_obs.counter "runner.cell_retries" 1;
      Qp_obs.event "runner.cell_retry"
        ~args:(fun () ->
          [
            ("instance", Qp_obs.Str instance.Workload_instances.label);
            ("model", Qp_obs.Str (Valuations.describe model));
            ("error", Qp_obs.Str first);
          ]);
      if retry_backoff > 0.0 then Unix.sleepf retry_backoff;
      (match
         run_cell ~attempt:1 ?jobs ?n_runs ~profile ~seed model instance
       with
      | cell -> Ok cell
      | exception second_exn ->
          let error = Printexc.to_string second_exn in
          Qp_obs.counter "runner.cell_failures" 1;
          Qp_obs.event "runner.cell_failed"
            ~args:(fun () ->
              [
                ("instance", Qp_obs.Str instance.Workload_instances.label);
                ("model", Qp_obs.Str (Valuations.describe model));
                ("error", Qp_obs.Str error);
                ("first_attempt_error", Qp_obs.Str first);
              ]);
          Error
            {
              failed_instance = instance.Workload_instances.label;
              failed_model = Valuations.describe model;
              attempts = 2;
              error;
            })

let run_cells ?jobs ?n_runs ~profile ~seed models instance =
  let results =
    Qp_util.Parallel.map_list ?jobs
      (fun model -> run_cell_result ?n_runs ~profile ~seed model instance)
      models
  in
  let cells = List.filter_map (function Ok c -> Some c | Error _ -> None) results in
  let failures =
    List.filter_map (function Ok _ -> None | Error f -> Some f) results
  in
  (cells, failures)

let pp_cell_failure f =
  Printf.sprintf "! dropped %s / %s after %d attempts: %s" f.failed_instance
    f.failed_model f.attempts f.error

let cell_table ?(failures = []) ~header_label cells =
  match (cells, failures) with
  | [], [] -> "(no data)\n"
  | [], failures ->
      String.concat "" (List.map (fun f -> pp_cell_failure f ^ "\n") failures)
  | first :: _, _ ->
      let algo_names =
        List.map (fun m -> m.algorithm) first.measurements
      in
      let header = (header_label :: algo_names) @ [ "subadd-bound" ] in
      let rows =
        List.map
          (fun cell ->
            (cell.model
             :: List.map
                  (fun m -> Printf.sprintf "%.3f" m.normalized)
                  cell.measurements)
            @ [ Printf.sprintf "%.3f" cell.subadditive ])
          cells
      in
      let table = Text_table.render ~header rows in
      (* Degradation and failure annotations only render when present,
         keeping healthy sweeps byte-identical to the pre-robustness
         output. *)
      let degraded_lines =
        List.concat_map
          (fun cell ->
            List.filter_map
              (fun m ->
                Option.map
                  (fun d ->
                    Printf.sprintf "! %s / %s: %s\n" cell.model m.algorithm d)
                  m.degraded)
              cell.measurements)
          cells
      in
      let failure_lines =
        List.map (fun f -> pp_cell_failure f ^ "\n") failures
      in
      String.concat "" (table :: degraded_lines @ failure_lines)
