(* Lint fixture, never built: the obs-labels rule must flag the label
   below, which is neither lowercase nor under a registered prefix. *)

let label = "(*"

let () = Qp_obs.counter "Bad.Label" 1
