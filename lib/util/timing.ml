let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let time f =
  let t0 = now_ns () in
  let result = f () in
  (result, seconds_since t0)
