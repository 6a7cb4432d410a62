module V = Qp_workloads.Valuations
module WI = Workload_instances
module Rng = Qp_util.Rng

let timed_algorithms ctx inst =
  let profile = Context.profile ctx in
  let specs =
    List.filter
      (fun (s : Qp_core.Algorithms.spec) -> s.key <> "xos")
      (Runner.algorithms profile)
  in
  let h =
    V.apply
      ~rng:(Rng.create (Context.seed ctx))
      (V.Uniform_val 100.0) inst.WI.hypergraph
  in
  List.map
    (fun (spec : Qp_core.Algorithms.spec) ->
      (spec.label, snd (Qp_util.Timing.time (fun () -> spec.solve h))))
    specs

let algorithm_labels ctx =
  List.filter_map
    (fun (s : Qp_core.Algorithms.spec) ->
      if s.key = "xos" then None else Some s.label)
    (Runner.algorithms (Context.profile ctx))

let seconds_cell ?(plus = 0.0) s =
  if plus > 0.0 then Printf.sprintf "%.1f + %.1f" plus s
  else if s < 0.005 then "< 0.01"
  else Printf.sprintf "%.2f" s

(* "Where the time goes": the conflict-set construction instrumentation
   of every cached instance, as one table — build wall-clock, pool size,
   the delta-eval vs fallback split, and the per-query cost. *)
let build_breakdown fmt ctx =
  let rows =
    List.map
      (fun key ->
        let s = (Context.instance ctx key).WI.build_stats in
        let open Qp_market.Conflict in
        let mean_ms =
          if s.queries = 0 then 0.0
          else
            Array.fold_left ( +. ) 0.0 s.query_seconds
            *. 1000.0 /. Float.of_int s.queries
        in
        [
          key;
          string_of_int s.queries;
          string_of_int s.support;
          Printf.sprintf "%.2f" s.elapsed;
          string_of_int s.jobs;
          string_of_int (s.queries - s.fallback_queries);
          string_of_int s.fallback_queries;
          Printf.sprintf "%.2f" mean_ms;
        ])
      WI.keys
  in
  let header =
    [ "workload"; "queries"; "|S|"; "build s"; "jobs"; "delta-eval";
      "fallback"; "ms/query" ]
  in
  Format.fprintf fmt "Instance build: where the time goes@.%s@."
    (Qp_util.Text_table.render ~header rows)

let run_table4 fmt ctx =
  Format.fprintf fmt
    "Table 4: algorithm running times (seconds; build + solve where the@.\
     conflict-set construction dominates, as in the paper)@.";
  let rows =
    List.map
      (fun key ->
        let inst = Context.instance ctx key in
        let build = inst.WI.build_stats.Qp_market.Conflict.elapsed in
        let timings = timed_algorithms ctx inst in
        key
        :: List.map
             (fun (label, s) ->
               (* UBP ignores the hypergraph items entirely, so the
                  paper does not charge it the construction time. *)
               if label = "UBP" then seconds_cell s
               else seconds_cell ~plus:build s)
             timings)
      WI.keys
  in
  let header = "Query Workload" :: algorithm_labels ctx in
  Format.fprintf fmt "%s@." (Qp_util.Text_table.render ~header rows);
  build_breakdown fmt ctx

let support_sweep fmt ctx ~key ~include_build =
  let base = Context.instance ctx key in
  let rows =
    List.map
      (fun support ->
        let inst = WI.rebuild_with_support base ~support ~seed:(Context.seed ctx) in
        let build = inst.WI.build_stats.Qp_market.Conflict.elapsed in
        let timings = timed_algorithms ctx inst in
        Printf.sprintf "|S| = %d" support
        :: List.map
             (fun (label, s) ->
               if include_build && label <> "UBP" then
                 seconds_cell ~plus:build s
               else seconds_cell s)
             timings)
      (Exp_support.supports_for key)
  in
  let header = "Support Set Size" :: algorithm_labels ctx in
  Format.fprintf fmt "%s@." (Qp_util.Text_table.render ~header rows)

let run_table5 fmt ctx =
  Format.fprintf fmt
    "Table 5: runtimes vs support size, skewed workload (including@.\
     hypergraph construction)@.";
  support_sweep fmt ctx ~key:"skewed" ~include_build:true

let run_table6 fmt ctx =
  Format.fprintf fmt
    "Table 6: runtimes vs support size, SSB workload (excluding@.\
     hypergraph construction)@.";
  support_sweep fmt ctx ~key:"ssb" ~include_build:false
