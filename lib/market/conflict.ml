module Database = Qp_relational.Database
module Query = Qp_relational.Query
module Delta = Qp_relational.Delta
module Delta_eval = Qp_relational.Delta_eval

type stats = {
  queries : int;
  support : int;
  fallback_queries : int;
  failed_queries : (string * string) list;
  strategies : (string * int) list;
  jobs : int;
  query_seconds : float array;
  worker_busy : float array;
  elapsed : float;
}

let conflict_set_prepared prep deltas =
  let hits = ref [] in
  Array.iteri
    (fun i delta -> if Delta_eval.differs prep delta then hits := i :: !hits)
    deltas;
  Array.of_list (List.rev !hits)

let conflict_set db q deltas =
  conflict_set_prepared (Delta_eval.prepare db q) deltas

(* One task per (query, delta-array) row. Each task prepares its own
   query, so no Delta_eval state is shared across domains; [db] and
   [deltas] are only read. The task's return value is a pure function
   of (db, query, deltas) — scheduling cannot influence it. *)
let build_row ?attempt ~prepare db deltas index (q, valuation) =
  if Qp_fault.enabled () then
    Qp_fault.maybe_fail ?attempt ~key:index "conflict.query";
  Qp_obs.with_span "conflict.query"
    ~args:(fun () -> [ ("query", Qp_obs.Str q.Query.name) ])
  @@ fun () ->
  let t0 = Qp_util.Timing.now_ns () in
  (* A child span, not a duration arg: span args stay timing-free so the
     trace structure is the same at any job count, and the span's
     timestamps and label histogram give the prepare / scan split. *)
  let prep = Qp_obs.with_span "conflict.prepare" (fun () -> prepare db q) in
  let items = conflict_set_prepared prep deltas in
  Qp_obs.annotate (fun () ->
      let d = Delta_eval.decisions prep in
      [
        ("strategy", Qp_obs.Str (Delta_eval.strategy_name prep));
        ("conflicts", Qp_obs.Int (Array.length items));
        ("deltas_skipped", Qp_obs.Int d.Delta_eval.skipped);
        ("deltas_unreferenced", Qp_obs.Int d.Delta_eval.unreferenced);
        ("deltas_precheck_empty", Qp_obs.Int d.Delta_eval.precheck_empty);
        ("deltas_joined", Qp_obs.Int d.Delta_eval.joined);
      ]);
  ( (q.Query.name, items, valuation),
    Delta_eval.strategy_name prep,
    Qp_util.Timing.seconds_since t0 )

let hypergraph ?on_progress ?jobs ?(prepare = Delta_eval.prepare) db
    valued_queries deltas =
  Qp_obs.with_span "conflict.build"
    ~args:(fun () ->
      [
        ("queries", Qp_obs.Int (List.length valued_queries));
        ("support", Qp_obs.Int (Array.length deltas));
      ])
  @@ fun () ->
  let t0 = Qp_util.Timing.now_ns () in
  let rows = Array.mapi (fun i r -> (i, r)) (Array.of_list valued_queries) in
  let total = Array.length rows in
  let results, pool =
    Qp_util.Parallel.map_result_stats ?jobs
      (fun (i, row) -> build_row ~prepare db deltas i row)
      rows
  in
  (* Sequential index-ordered merge: specs come out in workload order
     whatever the scheduling, so the hypergraph is bit-identical to the
     jobs=1 build. Progress fires only here, on the merge side, which
     keeps [done_] monotone under any worker interleaving. A failed row
     is retried once here, sequentially (attempt 1, so probabilistic
     faults re-draw); a row that fails twice is excluded from the
     hypergraph and reported in [failed_queries] — partial market rather
     than no market. *)
  let by_strategy = Hashtbl.create 4 in
  let query_seconds = Array.make total 0.0 in
  let failed = ref [] in
  let specs = ref [] in
  Array.iteri
    (fun i result ->
      let result =
        match result with
        | Ok r -> Ok r
        | Error { Qp_util.Parallel.message; _ } -> (
            Qp_obs.counter "conflict.query_retries" 1;
            let i, row = rows.(i) in
            match build_row ~attempt:1 ~prepare db deltas i row with
            | r -> Ok r
            | exception e -> Error (message, Printexc.to_string e))
      in
      (match result with
      | Ok (spec, strategy, seconds) ->
          query_seconds.(i) <- seconds;
          Hashtbl.replace by_strategy strategy
            (1 + Option.value (Hashtbl.find_opt by_strategy strategy) ~default:0);
          specs := spec :: !specs
      | Error (first, second) ->
          let q, _ = snd rows.(i) in
          Qp_obs.counter "conflict.query_failures" 1;
          Qp_obs.event "conflict.query_failed"
            ~args:(fun () ->
              [
                ("query", Qp_obs.Str q.Query.name);
                ("error", Qp_obs.Str second);
                ("first_attempt_error", Qp_obs.Str first);
              ]);
          failed := (q.Query.name, second) :: !failed);
      match on_progress with
      | Some f -> f ~done_:(i + 1) ~total
      | None -> ())
    results;
  let specs = Array.of_list (List.rev !specs) in
  let failed_queries = List.rev !failed in
  let h = Qp_core.Hypergraph.create ~n_items:(Array.length deltas) specs in
  let strategies =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun name n acc -> (name, n) :: acc) by_strategy [])
  in
  let stats =
    {
      queries = total;
      support = Array.length deltas;
      fallback_queries =
        Option.value (Hashtbl.find_opt by_strategy "fallback") ~default:0;
      failed_queries;
      strategies;
      jobs = pool.Qp_util.Parallel.jobs;
      query_seconds;
      worker_busy = pool.Qp_util.Parallel.busy;
      elapsed = Qp_util.Timing.seconds_since t0;
    }
  in
  (* The stats record predates the tracing layer and remains the bench
     API; mirror its deterministic fields onto the span so traces are
     self-contained (the elapsed/busy timings stay off the span). *)
  Qp_obs.annotate (fun () ->
      ("fallback_queries", Qp_obs.Int stats.fallback_queries)
      :: List.map
           (fun (name, n) -> ("strategy_" ^ name, Qp_obs.Int n))
           strategies);
  Qp_obs.counter "conflict.queries" total;
  (h, stats)

(* Both item arrays are sorted and duplicate-free (Hypergraph.create),
   so one merge walk yields their symmetric difference in item order. *)
let disagreements h_a h_b =
  let module H = Qp_core.Hypergraph in
  let ea = H.edges h_a and eb = H.edges h_b in
  if Array.length ea <> Array.length eb then
    invalid_arg
      (Printf.sprintf "Conflict.disagreements: %d edges vs %d"
         (Array.length ea) (Array.length eb));
  let out = ref [] in
  Array.iter2
    (fun (a : H.edge) (b : H.edge) ->
      if a.name <> b.name then
        invalid_arg
          (Printf.sprintf "Conflict.disagreements: edge %d is %S vs %S" a.id
             a.name b.name);
      let xs = a.items and ys = b.items in
      let rec walk i j =
        let emit k = out := (a.name, k) :: !out in
        if i < Array.length xs && j < Array.length ys then
          if xs.(i) = ys.(j) then walk (i + 1) (j + 1)
          else if xs.(i) < ys.(j) then (emit xs.(i); walk (i + 1) j)
          else (emit ys.(j); walk i (j + 1))
        else if i < Array.length xs then (emit xs.(i); walk (i + 1) j)
        else if j < Array.length ys then (emit ys.(j); walk i (j + 1))
      in
      walk 0 0)
    ea eb;
  List.rev !out

let query_time_histogram ?buckets stats =
  if Array.length stats.query_seconds = 0 then "(no queries)\n"
  else
    let micros =
      Array.map (fun s -> int_of_float (s *. 1e6)) stats.query_seconds
    in
    Qp_util.Histogram.render ~log_scale:true
      (Qp_util.Histogram.create ?buckets micros)

let pp_stats fmt s =
  Format.fprintf fmt
    "%d queries x %d support deltas in %.2fs (%d job%s)@." s.queries s.support
    s.elapsed s.jobs
    (if s.jobs = 1 then "" else "s");
  Format.fprintf fmt "  strategies: %s@."
    (String.concat ", "
       (List.map (fun (name, n) -> Printf.sprintf "%s %d" name n) s.strategies));
  if s.failed_queries <> [] then
    Format.fprintf fmt "  dropped queries:%s@."
      (String.concat ""
         (List.map
            (fun (name, err) -> Printf.sprintf " %s (%s)" name err)
            s.failed_queries));
  Format.fprintf fmt "  worker busy:%s@."
    (String.concat ""
       (Array.to_list
          (Array.map (Printf.sprintf " %.2fs") s.worker_busy)));
  Format.fprintf fmt "  per-query build time (us, log counts):@.%s@?"
    (query_time_histogram ~buckets:8 s)
