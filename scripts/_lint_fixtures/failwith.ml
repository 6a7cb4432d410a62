(* Lint fixture, never built: the failwith rule must flag the call below,
   after a comment that quotes the token "*)". *)

let boom () = failwith "boom"
