(* The seller's half of the pipeline, timed one public call at a time:
   generate the dataset and queries, sample the support, build the
   conflict hypergraph, then solve the seven pricing families. *)

module H = Qp_core.Hypergraph
module P = Qp_core.Pricing
module Rng = Qp_util.Rng
module WI = Qp_experiments.Workload_instances

type kind = Ssb | Skewed

let key = function Ssb -> "ssb" | Skewed -> "skewed"

(* One build from scratch. Every build regenerates the dataset, so the
   relational engine's column caches start cold, as for a seller's
   first build. *)
type build = {
  instance : WI.t;
  generate_s : float;  (** dataset and queries *)
  support_s : float;
  build_s : float;  (** [Conflict.hypergraph] *)
  fingerprint : string;  (** digest of edge names and items *)
  build_minor_words : float;
  build_major_words : float;
}

(* Mirrors [Workload_instances] at Default scale step by step (the same
   generators, sizes and random-stream labels), so the result is the
   instance [qpricing serve] builds for the same seed. *)
let generate kind ~seed =
  let (db, queries), generate_s =
    Measure.time @@ fun () ->
    Qp_obs.with_span "bench.workloads.generate" @@ fun () ->
    match kind with
    | Ssb ->
        ( Qp_workloads.Ssb.generate ~rng:(Rng.split (Rng.create seed) "ssb")
            ~config:Qp_workloads.Ssb.default_config (),
          Qp_workloads.Ssb_queries.workload () )
    | Skewed ->
        let db =
          Qp_workloads.World.generate ~rng:(Rng.split (Rng.create seed) "world")
            ~config:Qp_workloads.World.default_config ()
        in
        (db, Qp_workloads.World_queries.workload db)
  in
  let n =
    match kind with
    | Ssb -> Settings.support_ssb
    | Skewed -> Settings.support_skewed
  in
  let deltas, support_s =
    Measure.time @@ fun () ->
    Qp_obs.with_span "bench.support.generate" @@ fun () ->
    Qp_market.Support.generate_query_aware
      ~rng:(Rng.split (Rng.create seed) "support")
      ~queries db ~n
  in
  (db, queries, deltas, generate_s, support_s)

let fingerprint h =
  let b = Buffer.create 65536 in
  Array.iter
    (fun (e : H.edge) ->
      Buffer.add_string b e.name;
      Array.iter (fun i -> Buffer.add_string b (Printf.sprintf " %d" i)) e.items;
      Buffer.add_char b '\n')
    (H.edges h);
  Digest.to_hex (Digest.string (Buffer.contents b))

let build kind ~seed =
  let db, queries, deltas, generate_s, support_s = generate kind ~seed in
  let valued = List.map (fun q -> (q, 1.0)) queries in
  let g0 = Gc.quick_stat () in
  let (hypergraph, build_stats), build_s =
    Measure.time @@ fun () ->
    Qp_obs.with_span "bench.conflict.hypergraph" @@ fun () ->
    Qp_market.Conflict.hypergraph ~jobs:Settings.jobs db valued deltas
  in
  let g1 = Gc.quick_stat () in
  {
    instance =
      { WI.key = key kind; label = key kind; db; queries; deltas; hypergraph;
        build_stats };
    generate_s;
    support_s;
    build_s;
    fingerprint = fingerprint hypergraph;
    build_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    build_major_words = g1.Gc.major_words -. g0.Gc.major_words;
  }

let check_build report ~reference b =
  let s = b.instance.WI.build_stats in
  Report.check report (b.fingerprint = reference.fingerprint)
    "hypergraph fingerprint differs between builds of one seed";
  Report.check report (s.failed_queries = []) "conflict build dropped queries";
  Report.check report (s.fallback_queries = 0)
    "conflict build used the fallback strategy";
  Report.check report
    (H.m b.instance.WI.hypergraph = List.length b.instance.WI.queries)
    "hypergraph has an edge count other than the query count";
  Report.op report (s.failed_queries = [] && s.fallback_queries = 0)

(* --- solving ---------------------------------------------------------- *)

type family = {
  fkey : string;
  pricing : P.t;
  degraded : string option;  (** a [Degrade] marker, described *)
  seconds : float;
  revenue : float;
}

type solve = {
  valued : H.t;  (** the hypergraph with valuations drawn *)
  sum_valuations : float;
  classes_s : float;  (** [Hypergraph.classes] *)
  solve_s : float;  (** classes plus all seven families *)
  results : family list;  (** ubp, uip, lpip, cip, layering, xos, capped *)
  solve_minor_words : float;
  solve_major_words : float;
}

let find s k = List.find (fun f -> f.fkey = k) s.results

(* Draws the valuations as [Qp_serve.Broker] does, then solves every
   family; XOS is synthesized from the LPIP and CIP vectors, as
   [Qp_experiments.Runner] does. Every timed call sits between two
   [Speed] probes (kept in [probes]) and its time is scaled: solving
   takes seconds, so each call gets the speed of its own moment. *)
let solve ~probes (instance : WI.t) ~seed =
  let h =
    Qp_workloads.Valuations.apply ~rng:(Rng.create seed) Settings.model
      instance.WI.hypergraph
  in
  let timed label f =
    let (r, seconds), k =
      Speed.around probes (fun () -> Measure.time (fun () -> Qp_obs.with_span label f))
    in
    (r, k *. seconds)
  in
  let g0 = Gc.quick_stat () in
  let (), classes_s = timed "bench.hypergraph.classes" (fun () -> ignore (H.classes h)) in
  let run fkey f =
    let (pricing, degraded), seconds = timed ("bench.solve." ^ fkey) f in
    { fkey; pricing; degraded; seconds; revenue = P.revenue pricing h }
  in
  let describe = Option.map Qp_core.Degrade.describe in
  let ubp = run "ubp" (fun () -> (Qp_core.Ubp.solve h, None)) in
  let uip = run "uip" (fun () -> (Qp_core.Uip.solve h, None)) in
  let lpip =
    run "lpip" (fun () ->
        let r = Qp_core.Lpip.solve_report ~options:Settings.lpip_options h in
        (r.Qp_core.Lpip.pricing, describe r.Qp_core.Lpip.degraded))
  in
  let cip =
    run "cip" (fun () ->
        let r = Qp_core.Cip.solve_report ~options:Settings.cip_options h in
        (r.Qp_core.Cip.pricing, describe r.Qp_core.Cip.degraded))
  in
  let layering = run "layering" (fun () -> (Qp_core.Layering.solve h, None)) in
  let xos =
    run "xos" (fun () ->
        match Qp_core.Xos.combine_safe [ lpip.pricing; cip.pricing ] with
        | Some (p, 0) -> (p, None)
        | Some (p, n) -> (p, Some (Printf.sprintf "%d component(s) dropped" n))
        | None -> (lpip.pricing, Some "no additive component"))
  in
  let capped =
    run "capped" (fun () ->
        ( Qp_core.Capped.solve ~cap_candidates:Settings.capped_cap_candidates
            ~jobs:Settings.jobs h,
          None ))
  in
  let g1 = Gc.quick_stat () in
  let results = [ ubp; uip; lpip; cip; layering; xos; capped ] in
  {
    valued = h;
    sum_valuations = H.sum_valuations h;
    classes_s;
    solve_s = List.fold_left (fun acc f -> acc +. f.seconds) classes_s results;
    results;
    solve_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    solve_major_words = g1.Gc.major_words -. g0.Gc.major_words;
  }

let check_solve report ~reference s =
  List.iter
    (fun f ->
      let valid = P.is_valid f.pricing s.valued in
      let bounded = f.revenue <= s.sum_valuations *. (1.0 +. 1e-12) in
      let same =
        Int64.bits_of_float f.revenue
        = Int64.bits_of_float (find reference f.fkey).revenue
      in
      Report.check report valid (f.fkey ^ ": pricing is not valid for the instance");
      Report.check report bounded (f.fkey ^ ": revenue exceeds the sum of valuations");
      Report.check report same (f.fkey ^ ": revenue differs between solves of one seed");
      Option.iter
        (fun why -> Report.check report false (f.fkey ^ " degraded: " ^ why))
        f.degraded;
      Report.op report (valid && bounded && same && f.degraded = None))
    s.results

(* Deep-Koutris arbitrage-freeness over every pair of hyperedges, for
   every family, on the worker pool. Outside the timed regions: it
   costs about a second per family. *)
let check_arbitrage report s =
  Qp_util.Parallel.map ~jobs:Settings.jobs
    (fun f -> (f.fkey, Qp_market.Arbitrage.check_edges f.pricing s.valued))
    (Array.of_list s.results)
  |> Array.iter (function
       | _, None -> ()
       | k, Some v ->
           Report.check report false
             (Format.asprintf "%s is not arbitrage-free: %a" k
                Qp_market.Arbitrage.pp_violation v))
