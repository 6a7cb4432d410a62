module Lp = Qp_lp.Lp

type options = {
  epsilon : float;
  max_pivots : int;
  time_budget : float option;
  jobs : int option;
}

let default_options =
  { epsilon = 0.25; max_pivots = 200_000; time_budget = None; jobs = None }

type report = Lp_sweep.report = {
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
   only the y-objective k moves — so each chunk of capacities solves
   through one warm-started Lp.Batch ([welfare_family]). *)
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

(* One chunk's family: a fresh batch over the dual, whose members only
   move the y-objective to their capacity. *)
let welfare_family ~max_pivots h () =
  let p, y = build_dual h in
  let y_idx =
    Array.to_list y
    |> List.filter_map (Option.map Lp.var_index)
    |> Array.of_list
  in
  let base_obj = Array.make (Lp.var_count p) 1.0 in
  let batch = Lp.Batch.prepare ~max_pivots p in
  fun k ->
    let obj = Array.copy base_obj in
    Array.iter (fun i -> obj.(i) <- k) y_idx;
    Result.map (prices_of_solution h y) (Lp.Batch.resolve ~obj batch)

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
     extend the budget. Workers check the budget before starting a
     capacity (skip once over budget); the merge runs in grid order so
     ties keep the smallest capacity. The fallback is UBP, the guarantee
     CIP is built on. *)
  let started = Qp_util.Timing.now_ns () in
  let over_budget k =
    match options.time_budget with
    | Some budget when Qp_util.Timing.seconds_since started >= budget ->
        Qp_obs.event "cip.capacity_skipped"
          ~args:(fun () -> [ ("k", Qp_obs.Float k) ]);
        true
    | _ -> false
  in
  let grid =
    capacity_grid ~epsilon:options.epsilon ~max_degree:(Hypergraph.max_degree h)
  in
  Qp_obs.annotate (fun () -> [ ("capacities", Qp_obs.Int (List.length grid)) ]);
  Lp_sweep.run ?jobs:options.jobs ~algorithm:"cip"
    ~member_span:"cip.capacity"
    ~member_args:(fun k -> [ ("k", Qp_obs.Float k) ])
    ~skip:over_budget
    ~family:(welfare_family ~max_pivots:options.max_pivots h)
    ~fallback:("ubp", Ubp.solve) ~all_failed:"all welfare LPs failed" h
    (Array.of_list grid)

let solve ?options h = (solve_report ?options h).pricing
