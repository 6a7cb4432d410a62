module Lp = Qp_lp.Lp

type options = {
  epsilon : float;
  max_pivots : int;
  time_budget : float option;
  jobs : int option;
}

let default_options =
  { epsilon = 0.25; max_pivots = 200_000; time_budget = None; jobs = None }

type report = {
  pricing : Pricing.t;
  solved : int;
  attempted : int;
  failures : (string * int) list;
  degraded : Degrade.marker option;
}

let capacity_grid ~epsilon ~max_degree =
  assert (epsilon > 0.0);
  let b = Float.of_int max_degree in
  let rec grow k acc = if k >= b then acc else grow (k *. (1.0 +. epsilon)) (k :: acc) in
  if max_degree <= 0 then []
  else
    (* The largest grown point can land a relative hair below [b]
       (e.g. 1.0 * (1+eps)^t = b * (1 - 1e-13) from rounding), in which
       case keeping both it and the appended [b] spends a full LP solve
       on a capacity that prices identically. Dedupe by relative
       tolerance. *)
    let grown =
      match grow 1.0 [] with
      | k :: rest when k >= b *. (1.0 -. 1e-9) -> rest
      | grown -> grown
    in
    List.rev (b :: grown)

(* Item prices are the capacity constraints' optimal duals, so we solve
   the welfare LP's *dual* directly — the prices become structural
   variables and the program has one row per edge instead of one per
   class plus one per edge bound:

   minimize    k * sum_c y_c + sum_e z_e
   subject to  sum_{c inside e} y_c + z_e >= v_e    for every edge e
               y, z >= 0

   The constraint matrix is identical across the whole capacity grid —
   only the y-objective k moves — so the sweep solves each chunk of
   capacities through one warm-started Lp.Batch. *)
let build_dual h =
  let classes = Hypergraph.classes h in
  let p = Lp.create ~minimize:true () in
  let y =
    Array.init classes.Hypergraph.n_classes (fun c ->
        if Array.length classes.Hypergraph.class_edges.(c) = 0 then None
        else Some (Lp.add_var p ~obj:1.0 ()))
  in
  Array.iter
    (fun (e : Hypergraph.edge) ->
      let z = Lp.add_var p ~obj:1.0 () in
      let terms =
        (1.0, z)
        :: (Array.to_list classes.Hypergraph.edge_classes.(e.id)
           |> List.filter_map (fun c -> Option.map (fun v -> (1.0, v)) y.(c)))
      in
      ignore (Lp.add_ge p terms e.valuation))
    (Hypergraph.edges h);
  (p, y)

let prices_of_solution h y sol =
  let classes = Hypergraph.classes h in
  let w_class = Array.make classes.Hypergraph.n_classes 0.0 in
  let rounded = ref 0 in
  Array.iteri
    (fun c var ->
      match var with
      | Some v ->
          let raw = Lp.value sol v in
          if raw < 0.0 then incr rounded;
          w_class.(c) <- Float.max 0.0 raw
      | None -> ())
    y;
  Qp_obs.counter "cip.rounded_weights" !rounded;
  Hypergraph.spread_class_weights h w_class

(* Fixed, job-count-independent chunking: each worker owns one batch and
   sweeps its capacities through it, so results (and warm-start chains)
   are bit-identical at any QP_JOBS. *)
let chunk_size = 8

let chunked n arr =
  let len = Array.length arr in
  Array.init
    ((len + n - 1) / n)
    (fun i -> Array.sub arr (i * n) (min n (len - (i * n))))

let prices_for_chunk ~max_pivots h ks ~in_budget =
  let p, y = build_dual h in
  let y_idx =
    Array.to_list y
    |> List.filter_map (Option.map Lp.var_index)
    |> Array.of_list
  in
  let base_obj = Array.make (Lp.var_count p) 1.0 in
  let batch = Lp.Batch.prepare ~max_pivots p in
  Array.map
    (fun k ->
      if not (in_budget ()) then begin
        Qp_obs.event "cip.capacity_skipped"
          ~args:(fun () -> [ ("k", Qp_obs.Float k) ]);
        `Skipped
      end
      else
        Qp_obs.with_span "cip.capacity"
          ~args:(fun () -> [ ("k", Qp_obs.Float k) ])
        @@ fun () ->
        let obj = Array.copy base_obj in
        Array.iter (fun i -> obj.(i) <- k) y_idx;
        match Lp.Batch.resolve ~obj batch with
        | Error e ->
            Qp_obs.annotate (fun () ->
                [ ("lp_failure", Qp_obs.Str (Qp_lp.Lp.error_tag e)) ]);
            `Failed e
        | Ok sol ->
            let pricing = Pricing.Item (prices_of_solution h y sol) in
            let revenue = Pricing.revenue pricing h in
            Qp_obs.annotate (fun () -> [ ("revenue", Qp_obs.Float revenue) ]);
            `Solved (pricing, revenue))
    ks

let solve_report ?(options = default_options) h =
  Qp_obs.with_span "cip.solve"
    ~args:(fun () ->
      [
        ("edges", Qp_obs.Int (Hypergraph.m h));
        ("epsilon", Qp_obs.Float options.epsilon);
        ("max_degree", Qp_obs.Int (Hypergraph.max_degree h));
      ])
  @@ fun () ->
  (* Monotonic: a wall-clock step must neither skip capacities nor
     extend the budget. *)
  let started = Qp_util.Timing.now_ns () in
  let in_budget () =
    match options.time_budget with
    | None -> true
    | Some budget -> Qp_util.Timing.seconds_since started < budget
  in
  ignore (Hypergraph.classes h);
  (* One welfare LP per capacity, solved by the worker pool. Workers
     check the budget before starting a capacity (the sequential sweep's
     skip-once-over-budget semantics); the merge runs in grid order so
     ties keep the smallest capacity, as before. *)
  let grid =
    capacity_grid ~epsilon:options.epsilon ~max_degree:(Hypergraph.max_degree h)
  in
  Qp_obs.annotate (fun () -> [ ("capacities", Qp_obs.Int (List.length grid)) ]);
  let solutions =
    Array.concat
      (Array.to_list
         (Qp_util.Parallel.map ?jobs:options.jobs
            (fun ks ->
              prices_for_chunk ~max_pivots:options.max_pivots h ks ~in_budget)
            (chunked chunk_size (Array.of_list grid))))
  in
  let zero = Pricing.Item (Array.make (Hypergraph.n_items h) 0.0) in
  let best = ref zero and best_revenue = ref (Pricing.revenue zero h) in
  let solved = ref 0 and errors = ref [] in
  Array.iter
    (function
      | `Skipped -> ()
      | `Failed e -> errors := e :: !errors
      | `Solved (pricing, revenue) ->
          incr solved;
          if revenue > !best_revenue then begin
            best := pricing;
            best_revenue := revenue
          end)
    solutions;
  let failures = Degrade.tally_failures (List.rev !errors) in
  if !errors <> [] then Qp_obs.counter "cip.lp_failures" (List.length !errors);
  (* Degradation: only when every attempted welfare LP failed does the
     zero pricing misrepresent CIP — fall back to UBP (the guarantee CIP
     is built on) and mark it. An all-skipped grid (time budget hit
     before the first capacity) keeps the legacy zero pricing: nothing
     failed, the sweep just never ran. *)
  let pricing, degraded =
    if !solved = 0 && failures <> [] then
      ( Ubp.solve h,
        Some
          (Degrade.record
             (Degrade.make ~algorithm:"cip" ~fallback:"ubp"
                ~reason:("all welfare LPs failed: " ^ Degrade.pp_tally failures))) )
    else (!best, None)
  in
  (* The closing annotation must describe the pricing actually returned:
     on a degraded run that is the UBP fallback's revenue, not the
     abandoned zero/best pricing's. *)
  let reported_revenue =
    match degraded with
    | None -> !best_revenue
    | Some _ -> Pricing.revenue pricing h
  in
  Qp_obs.annotate (fun () ->
      [
        ("solved", Qp_obs.Int !solved);
        ("failed", Qp_obs.Int (List.length !errors));
        ("best_revenue", Qp_obs.Float reported_revenue);
      ]
      @
      match degraded with
      | None -> []
      | Some _ -> [ ("fallback", Qp_obs.Str "ubp") ]);
  {
    pricing;
    solved = !solved;
    attempted = Array.length solutions;
    failures;
    degraded;
  }

let solve_with_trace ?options h =
  let r = solve_report ?options h in
  (r.pricing, r.solved)

let solve ?options h = (solve_report ?options h).pricing
