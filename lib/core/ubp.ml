let optimal_price h =
  Qp_obs.with_span "ubp.solve" @@ fun () ->
  (* Empty bundles are free under any arbitrage-free pricing (f(∅) = 0),
     so they contribute no revenue at any price point. *)
  let vals =
    Array.of_list
      (Array.to_list (Hypergraph.edges h)
      |> List.filter_map (fun (e : Hypergraph.edge) ->
             if Array.length e.items = 0 then None else Some e.valuation))
  in
  Array.sort (fun a b -> Float.compare b a) vals;
  let best_price = ref 0.0 and best_revenue = ref 0.0 in
  Array.iteri
    (fun j v ->
      (* At price v_(j) (descending), exactly the j+1 top-valued buyers
         can afford the bundle price. *)
      let revenue = v *. Float.of_int (j + 1) in
      if revenue > !best_revenue then begin
        best_revenue := revenue;
        best_price := v
      end)
    vals;
  (* The sweep scores a price as price × buyers; report what the chosen
     pricing actually earns, summed edge by edge as every caller does. *)
  let revenue = Pricing.revenue (Pricing.Uniform_bundle !best_price) h in
  Qp_obs.annotate (fun () ->
      [
        ("sweep", Qp_obs.Int (Array.length vals));
        ("best_price", Qp_obs.Float !best_price);
        ("best_revenue", Qp_obs.Float revenue);
      ]);
  (!best_price, revenue)

let solve h = Pricing.Uniform_bundle (fst (optimal_price h))
