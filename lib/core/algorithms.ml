type spec = {
  key : string;
  label : string;
  solve : Hypergraph.t -> Pricing.t;
  solve_report : Hypergraph.t -> Pricing.t * Degrade.marker option;
}

(* Combinatorial algorithms have no LP to fail, hence never degrade. *)
let total solve = (fun h -> (solve h, None))

(* The LP sweeps report their fallback marker in the shared sweep report. *)
let swept solve_report h =
  let r : Lp_sweep.report = solve_report h in
  (r.pricing, r.degraded)

let all ?lpip_options ?cip_options () =
  [
    { key = "ubp"; label = "UBP"; solve = Ubp.solve; solve_report = total Ubp.solve };
    { key = "uip"; label = "UIP"; solve = Uip.solve; solve_report = total Uip.solve };
    {
      key = "lpip";
      label = "LPIP";
      solve = (fun h -> Lpip.solve ?options:lpip_options h);
      solve_report = swept (Lpip.solve_report ?options:lpip_options);
    };
    {
      key = "cip";
      label = "CIP";
      solve = (fun h -> Cip.solve ?options:cip_options h);
      solve_report = swept (Cip.solve_report ?options:cip_options);
    };
    {
      key = "layering";
      label = "Layering";
      solve = Layering.solve;
      solve_report = total Layering.solve;
    };
    {
      key = "xos";
      label = "XOS-LPIP+CIP";
      solve = (fun h -> Xos.solve ?lpip_options ?cip_options h);
      solve_report =
        (fun h ->
          let r = Xos.solve_report ?lpip_options ?cip_options h in
          (r.Xos.pricing, r.Xos.degraded));
    };
  ]

let keys = List.map (fun s -> s.key) (all ())

let find ?lpip_options ?cip_options key =
  let key = String.lowercase_ascii key in
  List.find (fun s -> s.key = key) (all ?lpip_options ?cip_options ())
