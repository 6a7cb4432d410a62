(* Unified tracing and metrics for the pricing pipeline.

   Determinism discipline: events are recorded into per-domain buffers
   (Domain.DLS); a parallel section captures each task's events into a
   private buffer ([capture]) and the caller splices them back in task
   order ([splice]) — the same index-ordered merge Qp_util.Parallel
   applies to results. The *structure* of the trace (span labels,
   nesting, order, args, counters, gauges) is therefore a pure function
   of the work, independent of QP_JOBS; only timestamps vary from run
   to run. *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type ev =
  | Span_begin of { label : string; args : (string * arg) list; ts : int }
  | Span_end of { ts : int; args : (string * arg) list }
  | Instant of { label : string; args : (string * arg) list; ts : int }

type buf = { mutable events : ev list (* newest first *) }

(* Per-domain recording state. [cur] is the buffer events append to;
   [pending] holds one end-args accumulator per open span, innermost
   first, so [annotate] can attach measurements to the span being
   closed. *)
type dstate = {
  mutable cur : buf;
  mutable pending : (string * arg) list ref list;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* The monotonic clock Qp_util.Timing reads (this library sits below
   qp_util, so it reads it directly). Trace timestamps are integer
   nanoseconds since [set_enabled true] / [reset], exported as
   microseconds; span durations are their exact difference. *)
let clock_ns () = Int64.to_int (Monotonic_clock.now ())
let epoch = ref 0
let now () = clock_ns () - !epoch

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { cur = { events = [] }; pending = [] })

let state () = Domain.DLS.get dls

(* Counters are monotonic integer sums; integer addition is commutative
   and associative, so the totals are deterministic under any worker
   interleaving. Gauges record the maximum observed value — the only
   order-free aggregation for a "high-water mark" style metric. *)
let counters_tbl : (string, int) Hashtbl.t = Hashtbl.create 32
let gauges_tbl : (string, float) Hashtbl.t = Hashtbl.create 16
let metrics_mu = Mutex.create ()

(* Histograms follow the counter discipline: every field is an integer
   (counts, nanosecond sums, extrema), so accumulation is commutative
   and the merged result is bit-identical under any domain
   interleaving. Buckets are fixed powers of two — bucket [i] covers
   [2^i, 2^(i+1)) ns (bucket 0 additionally catches 0 and 1 ns) — so
   two histograms are always mergeable without rebinning. *)
module Hist = struct
  let n_buckets = 48

  type snapshot = {
    count : int;
    sum_ns : int;
    min_ns : int;
    max_ns : int;
    gc_minor_words : int;
    gc_major_words : int;
    buckets : int array;
  }

  type t = {
    mutable h_count : int;
    mutable h_sum_ns : int;
    mutable h_min_ns : int;
    mutable h_max_ns : int;
    mutable h_gc_minor : int;
    mutable h_gc_major : int;
    h_buckets : int array;
  }

  let create () =
    {
      h_count = 0;
      h_sum_ns = 0;
      h_min_ns = max_int;
      h_max_ns = 0;
      h_gc_minor = 0;
      h_gc_major = 0;
      h_buckets = Array.make n_buckets 0;
    }

  let bucket_of_ns v =
    if v <= 1 then 0
    else begin
      let b = ref 0 and v = ref v in
      while !v > 1 do
        v := !v lsr 1;
        incr b
      done;
      min (n_buckets - 1) !b
    end

  let bucket_lower_ns i = if i = 0 then 0 else 1 lsl i
  let bucket_upper_ns i = 1 lsl (i + 1)

  let record ?(gc_minor = 0) ?(gc_major = 0) h ns =
    let ns = max 0 ns in
    h.h_count <- h.h_count + 1;
    h.h_sum_ns <- h.h_sum_ns + ns;
    if ns < h.h_min_ns then h.h_min_ns <- ns;
    if ns > h.h_max_ns then h.h_max_ns <- ns;
    h.h_gc_minor <- h.h_gc_minor + max 0 gc_minor;
    h.h_gc_major <- h.h_gc_major + max 0 gc_major;
    let b = bucket_of_ns ns in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1

  let snapshot h =
    {
      count = h.h_count;
      sum_ns = h.h_sum_ns;
      min_ns = h.h_min_ns;
      max_ns = h.h_max_ns;
      gc_minor_words = h.h_gc_minor;
      gc_major_words = h.h_gc_major;
      buckets = Array.copy h.h_buckets;
    }

  let empty =
    {
      count = 0;
      sum_ns = 0;
      min_ns = max_int;
      max_ns = 0;
      gc_minor_words = 0;
      gc_major_words = 0;
      buckets = Array.make n_buckets 0;
    }

  let merge a b =
    {
      count = a.count + b.count;
      sum_ns = a.sum_ns + b.sum_ns;
      min_ns = min a.min_ns b.min_ns;
      max_ns = max a.max_ns b.max_ns;
      gc_minor_words = a.gc_minor_words + b.gc_minor_words;
      gc_major_words = a.gc_major_words + b.gc_major_words;
      buckets = Array.init n_buckets (fun i -> a.buckets.(i) + b.buckets.(i));
    }

  (* Nearest-rank into the bucket holding that rank, then linear
     interpolation inside the bucket, clamped to the observed extrema
     so single-sample histograms report the exact value. *)
  let quantile_ns s q =
    if s.count = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 100.0 q) in
      let rank =
        max 1 (int_of_float (Float.ceil (q /. 100.0 *. float_of_int s.count)))
      in
      let i = ref 0 and seen = ref 0 in
      while !seen + s.buckets.(!i) < rank && !i < n_buckets - 1 do
        seen := !seen + s.buckets.(!i);
        incr i
      done;
      let inside = s.buckets.(!i) in
      let est =
        if inside = 0 then float_of_int (bucket_lower_ns !i)
        else begin
          let lo = float_of_int (bucket_lower_ns !i)
          and hi = float_of_int (bucket_upper_ns !i) in
          let frac = (float_of_int (rank - !seen) -. 0.5) /. float_of_int inside in
          lo +. ((hi -. lo) *. frac)
        end
      in
      Float.max (float_of_int s.min_ns) (Float.min (float_of_int s.max_ns) est)
    end
end

let hist_tbl : (string, Hist.t) Hashtbl.t = Hashtbl.create 32

(* Shared by [with_span] (automatic) and [observe_ns] (manual). Called
   only on the enabled path. *)
let hist_observe label ~ns ~gc_minor ~gc_major =
  Mutex.lock metrics_mu;
  let h =
    match Hashtbl.find_opt hist_tbl label with
    | Some h -> h
    | None ->
        let h = Hist.create () in
        Hashtbl.add hist_tbl label h;
        h
  in
  Hist.record ~gc_minor ~gc_major h ns;
  Mutex.unlock metrics_mu

let set_enabled on =
  if on && not (enabled ()) then epoch := clock_ns ();
  Atomic.set enabled_flag on

let reset () =
  let st = state () in
  st.cur <- { events = [] };
  st.pending <- [];
  Mutex.lock metrics_mu;
  Hashtbl.reset counters_tbl;
  Hashtbl.reset gauges_tbl;
  Hashtbl.reset hist_tbl;
  Mutex.unlock metrics_mu;
  epoch := clock_ns ()

(* Duration and GC-delta recording live outside the trace buffer on
   purpose: elapsed time and promoted-word counts are timing-dependent, so
   attaching them as span args would break the bit-identical
   [structure] contract. Aggregated into per-label histograms they only
   affect [histograms ()], whose integer counts stay deterministic. *)
let with_span ?args label f =
  if not (enabled ()) then f ()
  else begin
    let st = state () in
    let bargs = match args with None -> [] | Some g -> g () in
    let t0 = now () in
    st.cur.events <- Span_begin { label; args = bargs; ts = t0 } :: st.cur.events;
    let endargs = ref [] in
    st.pending <- endargs :: st.pending;
    (* Gc.counters, not Gc.quick_stat: quick_stat's minor_words only
       advances at collection boundaries, so short spans would read an
       allocation delta of zero. counters reads the live young pointer. *)
    let minor0, _, major0 = Gc.counters () in
    Fun.protect
      ~finally:(fun () ->
        let minor1, _, major1 = Gc.counters () in
        (st.pending <- (match st.pending with _ :: tl -> tl | [] -> []));
        let t1 = now () in
        st.cur.events <- Span_end { ts = t1; args = !endargs } :: st.cur.events;
        hist_observe label
          ~ns:(t1 - t0)
          ~gc_minor:(int_of_float (minor1 -. minor0))
          ~gc_major:(int_of_float (major1 -. major0)))
      f
  end

let observe_ns label ns =
  if enabled () then hist_observe label ~ns ~gc_minor:0 ~gc_major:0

let annotate args =
  if enabled () then
    let st = state () in
    match st.pending with
    | r :: _ -> r := !r @ args ()
    | [] -> ()

let event ?args label =
  if enabled () then begin
    let st = state () in
    let eargs = match args with None -> [] | Some g -> g () in
    st.cur.events <- Instant { label; args = eargs; ts = now () } :: st.cur.events
  end

let counter label n =
  if enabled () then begin
    Mutex.lock metrics_mu;
    Hashtbl.replace counters_tbl label
      (n + Option.value (Hashtbl.find_opt counters_tbl label) ~default:0);
    Mutex.unlock metrics_mu
  end

let gauge_max label v =
  if enabled () then begin
    Mutex.lock metrics_mu;
    (match Hashtbl.find_opt gauges_tbl label with
    | Some old when old >= v -> ()
    | _ -> Hashtbl.replace gauges_tbl label v);
    Mutex.unlock metrics_mu
  end

(* --- capture / splice (the Parallel integration) --------------------- *)

let empty_buf = { events = [] }

let capture f =
  if not (enabled ()) then (f (), empty_buf)
  else begin
    let st = state () in
    let saved_cur = st.cur and saved_pending = st.pending in
    let fresh = { events = [] } in
    st.cur <- fresh;
    st.pending <- [];
    Fun.protect
      ~finally:(fun () ->
        st.cur <- saved_cur;
        st.pending <- saved_pending)
      (fun () ->
        let r = f () in
        (r, fresh))
  end

let splice b =
  if enabled () && b.events <> [] then begin
    let st = state () in
    st.cur.events <- b.events @ st.cur.events
  end

(* --- introspection ---------------------------------------------------- *)

let events_chronological () = List.rev (state ()).cur.events

let span_count () =
  List.fold_left
    (fun acc ev -> match ev with Span_begin _ -> acc + 1 | _ -> acc)
    0 (state ()).cur.events

let counters () =
  Mutex.lock metrics_mu;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters_tbl [] in
  Mutex.unlock metrics_mu;
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

let gauges () =
  Mutex.lock metrics_mu;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauges_tbl [] in
  Mutex.unlock metrics_mu;
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

let histograms () =
  Mutex.lock metrics_mu;
  let l = Hashtbl.fold (fun k h acc -> (k, Hist.snapshot h) :: acc) hist_tbl [] in
  Mutex.unlock metrics_mu;
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

let arg_to_string = function
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%.17g" f
  | Str s -> s
  | Bool b -> string_of_bool b

let args_to_string args =
  String.concat " "
    (List.map (fun (k, v) -> k ^ "=" ^ arg_to_string v) args)

let structure () =
  let b = Buffer.create 4096 in
  let depth = ref 0 in
  let indent () = String.make (2 * !depth) ' ' in
  (* Span_end args belong to the span just closed; re-print them on the
     closing line only when non-empty so quiet spans stay one line. *)
  List.iter
    (fun ev ->
      match ev with
      | Span_begin { label; args; _ } ->
          Buffer.add_string b
            (Printf.sprintf "%sspan %s%s\n" (indent ()) label
               (match args with [] -> "" | l -> " [" ^ args_to_string l ^ "]"));
          incr depth
      | Span_end { args; _ } ->
          (match args with
          | [] -> ()
          | l ->
              Buffer.add_string b
                (Printf.sprintf "%send [%s]\n" (indent ()) (args_to_string l)));
          decr depth
      | Instant { label; args; _ } ->
          Buffer.add_string b
            (Printf.sprintf "%sevent %s%s\n" (indent ()) label
               (match args with [] -> "" | l -> " [" ^ args_to_string l ^ "]")))
    (events_chronological ());
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "counter %s = %d\n" k v))
    (counters ());
  List.iter
    (fun (k, v) ->
      Buffer.add_string b (Printf.sprintf "gauge %s = %.17g\n" k v))
    (gauges ());
  Buffer.contents b

(* --- Chrome trace-event export ---------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let arg_json = function
  | Int n -> string_of_int n
  | Float f ->
      if Float.is_finite f then Printf.sprintf "%.17g" f
      else Printf.sprintf "\"%s\"" (Printf.sprintf "%h" f)
  | Str s -> "\"" ^ json_escape s ^ "\""
  | Bool b -> string_of_bool b

let args_json args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> "\"" ^ json_escape k ^ "\":" ^ arg_json v) args)
  ^ "}"

let to_chrome_lines () =
  let lines = ref [] in
  let push l = lines := l :: !lines in
  push
    "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"qpricing\"}}";
  (* Worker events are spliced in task order, not time order, so a
     later task's stamps can run behind an earlier one's; clamping to a
     monotone sequence keeps the merged timeline well-formed for
     chrome://tracing without changing the (deterministic) structure. *)
  let last = ref 0 in
  let us ns = Float.of_int ns /. 1e3 in
  let mono ts =
    let ts = max ts !last in
    last := ts;
    us ts
  in
  List.iter
    (fun ev ->
      match ev with
      | Span_begin { label; args; ts } ->
          push
            (Printf.sprintf
               "{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"name\":\"%s\",\"args\":%s}"
               (mono ts) (json_escape label) (args_json args))
      | Span_end { ts; args } ->
          push
            (Printf.sprintf
               "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"args\":%s}"
               (mono ts) (args_json args))
      | Instant { label; args; ts } ->
          push
            (Printf.sprintf
               "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"s\":\"t\",\"name\":\"%s\",\"args\":%s}"
               (mono ts) (json_escape label) (args_json args)))
    (events_chronological ());
  let final = us !last in
  List.iter
    (fun (k, v) ->
      push
        (Printf.sprintf
           "{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"name\":\"%s\",\"args\":{\"value\":%d}}"
           final (json_escape k) v))
    (counters ());
  (* Gauges share the "C" phase with counters; the "kind" arg is what
     lets Qp_obs_report tell them apart (older traces without it are
     read back as counters). *)
  List.iter
    (fun (k, v) ->
      push
        (Printf.sprintf
           "{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"name\":\"%s\",\"args\":{\"value\":%.17g,\"kind\":\"gauge\"}}"
           final (json_escape k) v))
    (gauges ());
  List.rev !lines

let write_chrome_trace path =
  let oc = open_out path in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    (to_chrome_lines ());
  close_out oc
