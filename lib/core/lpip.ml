type options = {
  max_candidates : int option;
  max_pivots : int;
  jobs : int option;
}

let default_options = { max_candidates = None; max_pivots = 200_000; jobs = None }

type report = Lp_sweep.report = {
  pricing : Pricing.t;
  solved : int;
  attempted : int;
  failures : (string * int) list;
  degraded : Degrade.marker option;
}

(* Subsample n of the candidates (sorted by descending valuation):
   half taken geometrically from the top ranks — where the optimum
   usually lives, since high thresholds mean few must-sell constraints —
   and half evenly across the rest of the range. *)
let evenly_spaced n xs =
  let len = List.length xs in
  if len <= n then xs
  else begin
    let arr = Array.of_list xs in
    let picked = Hashtbl.create n in
    let take i = Hashtbl.replace picked (max 0 (min (len - 1) i)) () in
    let geometric = max 1 (n / 2) in
    let rank = ref 1.0 in
    for _ = 1 to geometric do
      take (int_of_float !rank - 1);
      rank := Float.max (!rank +. 1.0) (!rank *. 1.6)
    done;
    let rest = n - Hashtbl.length picked in
    for i = 0 to rest - 1 do
      take (i * len / max 1 rest)
    done;
    Hashtbl.fold (fun i () acc -> i :: acc) picked []
    |> List.sort Int.compare
    |> List.map (fun i -> arr.(i))
  end

let solve_report ?(options = default_options) h =
  Qp_obs.with_span "lpip.solve"
    ~args:(fun () -> [ ("edges", Qp_obs.Int (Hypergraph.m h)) ])
  @@ fun () ->
  let edges = Array.to_list (Hypergraph.edges h) in
  let sorted =
    List.sort
      (fun (a : Hypergraph.edge) (b : Hypergraph.edge) ->
        Float.compare b.valuation a.valuation)
      edges
  in
  (* Equal valuations induce equal F_e: keep one candidate per distinct
     valuation, remembering the prefix of must-sell edges. *)
  let candidates, _ =
    List.fold_left
      (fun (cands, prefix) (e : Hypergraph.edge) ->
        let prefix = e.id :: prefix in
        match cands with
        | (v, _) :: _ when v = e.valuation -> ((v, prefix) :: List.tl cands, prefix)
        | _ -> ((e.valuation, prefix) :: cands, prefix))
      ([], []) sorted
  in
  let candidates = List.rev candidates in
  let candidates =
    match options.max_candidates with
    | None -> candidates
    | Some n -> evenly_spaced n candidates
  in
  Qp_obs.annotate (fun () ->
      [ ("candidates", Qp_obs.Int (List.length candidates)) ]);
  (* The candidates share one constraint matrix (only which rows bind
     changes between nested prefixes), so each chunk warm-starts through
     its own must-sell family; ties keep the highest-valuation
     candidate. The fallback is UIP, the combinatorial item pricing LPIP
     dominates when healthy. *)
  Lp_sweep.run ?jobs:options.jobs ~algorithm:"lpip"
    ~member_span:"lpip.candidate"
    ~member_args:(fun must_sell ->
      [ ("must_sell", Qp_obs.Int (List.length must_sell)) ])
    ~family:(fun () ->
      let fam = Class_lp.prepare_family ~max_pivots:options.max_pivots h in
      fun must_sell -> Class_lp.family_must_sell fam ~edge_ids:must_sell)
    ~fallback:("uip", Uip.solve) ~all_failed:"all candidate LPs failed" h
    (Array.of_list (List.map snd candidates))

let solve ?options h = (solve_report ?options h).pricing
