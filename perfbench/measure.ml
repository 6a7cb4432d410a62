(* The benchmark's one clock, sample buffers and summary statistics.

   Every duration the benchmark itself reports is read from bechamel's
   monotonic clock — the clock the serve loop already uses — and from
   nowhere else. *)

let now_ns () = Monotonic_clock.now ()

let since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9
(** Seconds elapsed since the reading [t0]. *)

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

(* A growable buffer of float samples. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

(* Quantile [p] in [0, 1] with linear interpolation between closest
   ranks (the definition Python's statistics.quantiles(method=
   "inclusive") uses). Empty input is a caller bug. *)
let quantile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.quantile: no samples";
  let pos = p *. Float.of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((pos -. Float.of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* The estimate reported for a stage timed several times in a run.
   Interference from other work on the host only ever adds time, so a
   low quantile repeats from run to run better than the median; the
   quartile, unlike the minimum, is not one lucky sample. *)
let lower_quartile xs = quantile xs 0.25
let median_list l = median (Array.of_list l)

(* Peak resident set size (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> Float.of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM missing from /proc status"
  in
  scan ()
