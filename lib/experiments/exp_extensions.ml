module V = Qp_workloads.Valuations
module WI = Workload_instances
module H = Qp_core.Hypergraph
module P = Qp_core.Pricing
module Rng = Qp_util.Rng
module Timing = Qp_util.Timing

let valued ctx ?(model = V.Uniform_val 100.0) key =
  let inst = Context.instance ctx key in
  ( inst,
    V.apply ~rng:(Rng.create (Context.seed ctx)) model inst.WI.hypergraph )

let run_refine fmt ctx =
  Format.fprintf fmt
    "UBP refinement (the paper's §6.3 post-processing, additive model k=1):@.";
  List.iter
    (fun key ->
      let _, h = valued ctx ~model:(V.Additive { k = 1; dtilde = V.D_uniform }) key in
      let total = Float.max 1e-9 (H.sum_valuations h) in
      let ubp = Qp_core.Ubp.solve h in
      let refined = Qp_core.Refine.refine_ubp h in
      Format.fprintf fmt
        "  %-8s UBP=%.3f  refined item pricing=%.3f  (normalized revenue)@."
        key
        (P.revenue ubp h /. total)
        (P.revenue refined h /. total))
    WI.keys

let hypergraph_stats h =
  let empty =
    Array.fold_left
      (fun a (e : H.edge) -> if e.items = [||] then a + 1 else a)
      0 (H.edges h)
  in
  Printf.sprintf "B=%d avg=|e|=%.2f empty=%d" (H.max_degree h)
    (H.avg_edge_size h) empty

let run_support_strategy fmt ctx =
  Format.fprintf fmt
    "Support-sampling ablation (uniform Qirana-style vs query-aware, §7.2):@.";
  List.iter
    (fun key ->
      let base = Context.instance ctx key in
      let support = Array.length base.WI.deltas in
      List.iter
        (fun (name, strategy) ->
          let inst =
            WI.rebuild_with_support ~strategy base ~support
              ~seed:(Context.seed ctx)
          in
          let h =
            V.apply
              ~rng:(Rng.create (Context.seed ctx))
              (V.Uniform_val 100.0) inst.WI.hypergraph
          in
          let total = Float.max 1e-9 (H.sum_valuations h) in
          let lpip =
            Qp_core.Lpip.solve
              ~options:(Runner.lpip_options (Context.profile ctx))
              h
          in
          Format.fprintf fmt "  %-8s %-12s %-32s  UBP=%.3f LPIP=%.3f@." key name
            (hypergraph_stats h)
            (P.revenue (Qp_core.Ubp.solve h) h /. total)
            (P.revenue lpip h /. total))
        [ ("uniform", WI.Uniform_support); ("query-aware", WI.Query_aware) ])
    [ "skewed"; "tpch" ]

let run_cip_epsilon fmt ctx =
  Format.fprintf fmt "CIP capacity-grid resolution (ε sweep, §6.4):@.";
  let _, h = valued ctx "uniform" in
  let total = Float.max 1e-9 (H.sum_valuations h) in
  List.iter
    (fun epsilon ->
      let r, seconds =
        Timing.time (fun () ->
            Qp_core.Cip.solve_report
              ~options:{ Qp_core.Cip.epsilon; max_pivots = 200_000;
                         time_budget = Some 120.0; jobs = None }
              h)
      in
      Format.fprintf fmt "  ε=%-5g  LPs=%-3d  revenue=%.3f  time=%.2fs@." epsilon
        r.Qp_core.Lp_sweep.solved
        (P.revenue r.Qp_core.Lp_sweep.pricing h /. total)
        seconds)
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

let run_lpip_candidates fmt ctx =
  Format.fprintf fmt "LPIP candidate-cap sweep (skewed workload):@.";
  let _, h = valued ctx "skewed" in
  let total = Float.max 1e-9 (H.sum_valuations h) in
  List.iter
    (fun cap ->
      let r, seconds =
        Timing.time (fun () ->
            Qp_core.Lpip.solve_report
              ~options:{ Qp_core.Lpip.max_candidates = cap; max_pivots = 200_000;
                         jobs = None }
              h)
      in
      Format.fprintf fmt "  cap=%-6s LPs=%-4d revenue=%.3f  time=%.2fs@."
        (match cap with None -> "all" | Some c -> string_of_int c)
        r.Qp_core.Lp_sweep.solved
        (P.revenue r.Qp_core.Lp_sweep.pricing h /. total)
        seconds)
    [ Some 4; Some 12; Some 48 ]

let run_collapse fmt ctx =
  Format.fprintf fmt
    "Membership-class collapsing ablation (must-sell LP of the top 25%% edges):@.";
  List.iter
    (fun key ->
      let _, h = valued ctx key in
      let classes = H.classes h in
      let edges =
        Array.to_list (H.edges h)
        |> List.sort (fun (a : H.edge) b -> Float.compare b.valuation a.valuation)
      in
      let top = List.filteri (fun i _ -> 4 * i < List.length edges) edges in
      let ids = List.map (fun (e : H.edge) -> e.id) top in
      let time collapse =
        Timing.time (fun () ->
            Qp_core.Class_lp.solve_must_sell ~collapse h ~edge_ids:ids)
      in
      let w_on, t_on = time true in
      let w_off, t_off = time false in
      let revenue = function
        | Ok w -> P.revenue (P.Item w) h
        | Error _ -> nan
      in
      Format.fprintf fmt
        "  %-8s n=%d classes=%d  collapsed: %.3fs (rev %.1f)  naive: %.3fs \
         (rev %.1f)@."
        key (H.n_items h) classes.H.n_classes t_on (revenue w_on) t_off
        (revenue w_off))
    [ "skewed"; "tpch" ]
