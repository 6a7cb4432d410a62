(* Lint fixture, never built: the float-sort rule must flag the sort
   below, which follows a string literal holding "(*". *)

let label = "count(*)"

(* A comment after the literal. *)
let sorted xs = List.sort compare xs
