(* The machine's speed at a given moment, read off a fixed reference
   kernel.

   On a shared host the speed of the same code drifts by tens of
   percent over a few seconds (other tenants' load on the host), which
   no number of repetitions averages out when the drift outlasts the
   run. So a short kernel that belongs to the benchmark, not to the
   libraries, is timed between every two measured stages, and each
   stage's time is scaled by [Settings.reference_s] over the mean of the
   kernel's two neighbouring times: the time the stage would take on a
   host where the kernel takes [Settings.reference_s]. A change to the
   libraries leaves the kernel alone, so it moves the scaled time fully.

   The kernel runs on one domain. Timed on two domains at once, it
   tracked a two-domain build no better in the common case, and when
   the host took one CPU away it slowed four times where the build
   slowed twice, so the scaled build came out far too fast.

   The kernel mixes what the pipeline spends its time on: allocation,
   sorting, hashing and short strings. It must never change, or scaled
   times of different versions would stop being comparable. *)

let kernel () =
  let rng = Random.State.make [| 7 |] in
  let a = Array.init 50_000 (fun _ -> Random.State.float rng 1.0) in
  Array.sort Float.compare a;
  let h = Hashtbl.create 1024 in
  for i = 0 to 25_000 do
    Hashtbl.replace h (i * 7919 mod 100_003) (string_of_int i)
  done;
  let m = ref 0 in
  for i = 0 to 25_000 do
    match Hashtbl.find_opt h i with Some s -> m := !m + String.length s | None -> ()
  done;
  let l = List.sort compare (List.init 50_000 (fun i -> (i * 31) land 1023)) in
  ignore (Sys.opaque_identity (a, !m, l))

(* Seconds the kernel takes now: the faster of two runs from a
   compacted heap, so that a hiccup of a few milliseconds in one of them
   does not pass for a slow host and shrink the neighbouring stages. *)
let probe () =
  Gc.compact ();
  let first = snd (Measure.time kernel) in
  Float.min first (snd (Measure.time kernel))

(* [around ps f] runs [f] and returns its result with the factor that
   scales its times to the reference speed, probing after it (and before
   it, if [ps] is still empty). Every probe is kept in [ps], newest
   first. *)
let around ps f =
  if !ps = [] then ps := [ probe () ];
  let before = List.hd !ps in
  let r = f () in
  let after = probe () in
  ps := after :: !ps;
  (r, Settings.reference_s /. ((before +. after) /. 2.0))
