module Lp = Qp_lp.Lp

let sum_valuations = Hypergraph.sum_valuations

module Int_set = Set.Make (Int)

(* Greedy weighted set cover of [target]'s items using other edges:
   repeatedly pick the edge minimizing valuation per newly covered item.
   Returns [None] when some item of [target] appears in no other edge. *)
let greedy_cover h (target : Hypergraph.edge) =
  let uncovered = ref (Int_set.of_list (Array.to_list target.items)) in
  let cover = ref [] in
  let edges = Hypergraph.edges h in
  let result = ref (Some []) in
  (try
     while not (Int_set.is_empty !uncovered) do
       let best = ref None in
       Array.iter
         (fun (e : Hypergraph.edge) ->
           (* Identical bundles are handled exactly by the uniform-cap
              group constraints; letting them "cover" each other would
              double-penalize duplicates. *)
           if e.id <> target.id && e.items <> target.items then begin
             let gain =
               Array.fold_left
                 (fun acc j -> if Int_set.mem j !uncovered then acc + 1 else acc)
                 0 e.items
             in
             if gain > 0 then
               let ratio = e.valuation /. Float.of_int gain in
               match !best with
               | Some (r, _) when r <= ratio -> ()
               | _ -> best := Some (ratio, e)
           end)
         edges;
       match !best with
       | None ->
           result := None;
           raise Exit
       | Some (_, e) ->
           cover := e :: !cover;
           uncovered :=
             Array.fold_left (fun acc j -> Int_set.remove j acc) !uncovered e.items
     done;
     result := Some !cover
   with Exit -> ());
  !result

(* Best uniform price over a multiset of valuations: the exact revenue
   cap for a set of buyers requesting the *same* bundle (the pricing
   function assigns one price per set, so identical bundles share it). *)
let uniform_cap values =
  let sorted = List.sort (fun a b -> Float.compare b a) values in
  let best = ref 0.0 in
  List.iteri
    (fun j v ->
      let r = v *. Float.of_int (j + 1) in
      if r > !best then best := r)
    sorted;
  !best

let subadditive_bound ?max_covers ?(max_pivots = 400_000) h =
  let m = Hypergraph.m h in
  let total = sum_valuations h in
  if m = 0 then 0.0
  else begin
    let p = Lp.create () in
    let r =
      Array.init m (fun e ->
          Lp.add_var p ~obj:1.0 ()
          |> fun v ->
          (* Empty bundles are free under any subadditive pricing
             (f(∅) = 0), so their extractable revenue is 0, not v_e. *)
          let edge = Hypergraph.edge h e in
          let cap =
            if Array.length edge.Hypergraph.items = 0 then 0.0
            else edge.Hypergraph.valuation
          in
          ignore (Lp.add_le p [ (1.0, v) ] cap);
          v)
    in
    (* Sound constraint: buyers with identical bundles face one price,
       so as a group they cannot beat the optimal uniform price on
       their valuations. *)
    let groups = Hashtbl.create m in
    Array.iter
      (fun (e : Hypergraph.edge) ->
        let key = Array.to_list e.items in
        let cur = Option.value (Hashtbl.find_opt groups key) ~default:[] in
        Hashtbl.replace groups key (e :: cur))
      (Hypergraph.edges h);
    Hashtbl.iter
      (fun _ es ->
        match es with
        | [] | [ _ ] -> ()
        | _ ->
            let cap =
              uniform_cap (List.map (fun (e : Hypergraph.edge) -> e.valuation) es)
            in
            let terms = List.map (fun (e : Hypergraph.edge) -> (1.0, r.(e.id))) es in
            ignore (Lp.add_le p terms cap))
      groups;
    let by_valuation_desc =
      Array.to_list (Hypergraph.edges h)
      |> List.sort (fun (a : Hypergraph.edge) b -> Float.compare b.valuation a.valuation)
    in
    let budget = ref (Option.value max_covers ~default:m) in
    List.iter
      (fun (e : Hypergraph.edge) ->
        if !budget > 0 && Array.length e.items > 0 then
          match greedy_cover h e with
          | Some cover ->
              let cover_value =
                List.fold_left
                  (fun acc (c : Hypergraph.edge) -> acc +. c.valuation)
                  0.0 cover
              in
              (* Only add constraints that actually bite; r_e <= v_e is
                 already present. *)
              if cover_value < e.valuation then begin
                decr budget;
                let terms =
                  (1.0, r.(e.id))
                  :: List.map (fun (c : Hypergraph.edge) -> (-1.0, r.(c.id))) cover
                in
                ignore (Lp.add_le p terms 0.0)
              end
          | None -> ())
      by_valuation_desc;
    match Lp.solve ~max_pivots p with
    | Ok sol -> Float.min total (Lp.objective_value sol)
    | Error e ->
        (* The bound LP is feasible (r = 0) and bounded by construction,
           so any failure is solver-side. The trivial bound stays sound;
           report the widening so plots normalized by it can say why. *)
        Qp_obs.counter "bounds.degraded" 1;
        Qp_obs.event "bounds.degraded"
          ~args:(fun () -> [ ("reason", Qp_obs.Str (Lp.error_tag e)) ]);
        total
  end
