let pricing h w = Pricing.Item (Array.make (Hypergraph.n_items h) w)

let optimal_weight h =
  Qp_obs.with_span "uip.solve" @@ fun () ->
  let sized =
    Array.to_list (Hypergraph.edges h)
    |> List.filter_map (fun (e : Hypergraph.edge) ->
           let s = Array.length e.items in
           if s = 0 then None else Some (e.valuation /. Float.of_int s, s))
  in
  let sorted = List.sort (fun (qa, _) (qb, _) -> Float.compare qb qa) sized in
  (* An edge sells at weight w iff q_e >= w, so at w = q_(j) the sellable
     size mass is the prefix sum of sizes. *)
  let best_w = ref 0.0 and best_revenue = ref 0.0 in
  let _ =
    List.fold_left
      (fun prefix (q, s) ->
        let prefix = prefix + s in
        let revenue = q *. Float.of_int prefix in
        if revenue > !best_revenue then begin
          best_revenue := revenue;
          best_w := q
        end;
        prefix)
      0 sorted
  in
  (* The sweep scores a weight as weight × sold size; report what the
     chosen pricing actually earns, summed edge by edge. *)
  let revenue = Pricing.revenue (pricing h !best_w) h in
  Qp_obs.annotate (fun () ->
      [
        ("sweep", Qp_obs.Int (List.length sorted));
        ("best_weight", Qp_obs.Float !best_w);
        ("best_revenue", Qp_obs.Float revenue);
      ]);
  (!best_w, revenue)

let solve h = pricing h (fst (optimal_weight h))
