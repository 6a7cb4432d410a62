let combine ps =
  let components =
    List.concat_map
      (function
        | Pricing.Item w -> [ w ]
        | Pricing.Xos ws -> ws
        | Pricing.Uniform_bundle _ | Pricing.Capped_item _ ->
            invalid_arg "Xos.combine: component is not additive")
      ps
  in
  if components = [] then invalid_arg "Xos.combine: empty combination";
  Pricing.Xos components

let combine_safe ps =
  let dropped = ref 0 in
  let components =
    List.concat_map
      (function
        | Pricing.Item w -> [ w ]
        | Pricing.Xos ws -> ws
        | Pricing.Uniform_bundle _ | Pricing.Capped_item _ ->
            incr dropped;
            [])
      ps
  in
  if components = [] then None else Some (Pricing.Xos components, !dropped)

type report = {
  pricing : Pricing.t;
  lpip : Lpip.report;
  cip : Cip.report;
  degraded : Degrade.marker option;
}

(* A degraded CIP hands back a uniform-bundle pricing, which is not
   additive and cannot join an XOS max — combine over whatever is still
   additive, and only fall back to UIP when nothing is. *)
let synthesize ~lpip ~cip h =
  match combine_safe [ lpip; cip ] with
  | Some (pricing, 0) -> (pricing, None)
  | Some (pricing, dropped) ->
      ( pricing,
        Some
          (Degrade.record
             (Degrade.make ~algorithm:"xos" ~fallback:"additive-subset"
                ~reason:
                  (Printf.sprintf "%d non-additive degraded component(s) dropped"
                     dropped))) )
  | None ->
      let marker =
        Degrade.record
          (Degrade.make ~algorithm:"xos" ~fallback:"uip"
             ~reason:"no additive component survived")
      in
      (Uip.solve h, Some marker)

let solve_report ?lpip_options ?cip_options h =
  Qp_obs.with_span "xos.solve" @@ fun () ->
  let lpip = Lpip.solve_report ?options:lpip_options h in
  let cip = Cip.solve_report ?options:cip_options h in
  let pricing, degraded =
    synthesize ~lpip:lpip.Lpip.pricing ~cip:cip.Cip.pricing h
  in
  { pricing; lpip; cip; degraded }

let solve ?lpip_options ?cip_options h =
  (solve_report ?lpip_options ?cip_options h).pricing
