(* Lint fixture, never built: a sweep module whose members each pay a
   cold one-shot Lp.solve; the cold-lp rule must flag the call. *)

let label = "(*"

let sweep lps = Qp_util.Parallel.map (fun lp -> Lp.solve lp) lps
