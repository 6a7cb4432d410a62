let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let time f =
  let t0 = now_ns () in
  let result = f () in
  (result, seconds_since t0)

let time_runs ?(warmup = 1) ~runs f =
  assert (runs > 0);
  for _ = 1 to warmup do
    ignore (f ())
  done;
  let total = ref 0.0 in
  for _ = 1 to runs do
    let _, dt = time f in
    total := !total +. dt
  done;
  !total /. Float.of_int runs
