(* The buyer's half of the pipeline: a seeded PRICE/QUOTE request mix
   answered by a [qpricing serve] process over a Unix socket, with every
   reply checked against [Broker.quote_index]. *)

module B = Qp_serve.Broker
module Pr = Qp_serve.Protocol
module Server = Qp_serve.Server
module Metrics = Qp_serve.Metrics

type verb = Price | Quote
type req = { verb : verb; index : int }

(* QUOTE with probability [Settings.quote_percent], else PRICE. Each
   verb walks its own shuffled pass over every query of the workload,
   reshuffled after each pass: the query is uniform as with independent
   draws, but a run sends each query a verb's share of the time, so
   runs of different seeds see the same mix of cheap and costly queries
   (on SSB one QUOTE costs from well under a millisecond to several).
   The same seed gives the same sequence. *)
let mix ~seed ~queries =
  let rng = Qp_util.Rng.split (Qp_util.Rng.create seed) "perfbench-mix" in
  let passes =
    List.map
      (fun v -> (v, (Array.init queries Fun.id, ref queries)))
      [ Price; Quote ]
  in
  fun () ->
    let verb =
      if Qp_util.Rng.int rng 100 < Settings.quote_percent then Quote else Price
    in
    let order, next = List.assoc verb passes in
    if !next = queries then begin
      Qp_util.Rng.shuffle rng order;
      next := 0
    end;
    incr next;
    { verb; index = order.(!next - 1) }

(* QUOTE sends the SQL text of the workload query it stands for. *)
let line sqls r =
  Pr.print_request
    (match r.verb with Price -> Pr.Price r.index | Quote -> Pr.Quote sqls.(r.index))

(* A reply is correct when it is bit-identical to [Broker.quote_index]
   of the same query (a QUOTE carries no [sold] flag). *)
let correct oracle r reply =
  let e = B.quote_index oracle r.index in
  match reply with
  | Ok (Pr.Quote_reply q) ->
      Int64.bits_of_float q.Pr.price = Int64.bits_of_float e.Pr.price
      && q.Pr.size = e.Pr.size
      && q.Pr.sold = (match r.verb with Price -> e.Pr.sold | Quote -> None)
  | Ok _ | Error _ -> false

(* Client-side latency per verb and the tally of replies. *)
type tally = {
  price_s : Measure.samples;
  quote_s : Measure.samples;
  all_s : Measure.samples;
  mutable prices : int;  (** correct PRICE replies *)
  mutable quotes : int;  (** correct QUOTE replies *)
  mutable wrong : int;
  mutable elapsed : float;
}

let tally () =
  {
    price_s = Measure.samples ();
    quote_s = Measure.samples ();
    all_s = Measure.samples ();
    prices = 0;
    quotes = 0;
    wrong = 0;
    elapsed = 0.0;
  }

let record report t oracle r seconds reply =
  let ok = correct oracle r reply in
  Report.op report ok;
  Measure.add t.all_s seconds;
  (match r.verb with
  | Price ->
      Measure.add t.price_s seconds;
      if ok then t.prices <- t.prices + 1
  | Quote ->
      Measure.add t.quote_s seconds;
      if ok then t.quotes <- t.quotes + 1);
  if not ok then t.wrong <- t.wrong + 1

let requests t = t.prices + t.quotes + t.wrong

(* Where a slice of serving starts in the tally. *)
type mark = { price_at : int; quote_at : int; elapsed_at : float }

let mark t = { price_at = t.price_s.len; quote_at = t.quote_s.len; elapsed_at = t.elapsed }

(* Scales the PRICE and QUOTE latencies and the elapsed time recorded
   since [m] by the slice's speed factor [k] (see speed.ml). [all_s]
   keeps the raw times, to compare with the server's own histogram. *)
let rescale t m k =
  let scale (s : Measure.samples) from =
    for j = from to s.len - 1 do
      s.data.(j) <- k *. s.data.(j)
    done
  in
  scale t.price_s m.price_at;
  scale t.quote_s m.quote_at;
  t.elapsed <- m.elapsed_at +. (k *. (t.elapsed -. m.elapsed_at))

(* --- the broker's own view, from its METRICS exposition --------------- *)

type server_view = {
  requests_total : float;
  quotes_total : float;
  errors_total : float;
  shed_total : float;
  request_p50_s : float;
  request_p99_s : float;
}

(* Percentile [p] (0-100) of a cumulative-bucket histogram, linearly
   interpolated inside the bucket that holds the rank. *)
let bucket_quantile samples name p =
  let buckets =
    List.filter_map
      (fun (s : Metrics.sample) ->
        if s.name <> name ^ "_bucket" then None
        else
          match List.assoc_opt "le" s.labels with
          | Some "+Inf" | None -> None
          | Some le -> Some (float_of_string le, s.value))
      samples
    |> List.sort compare
  in
  let total = List.fold_left (fun acc (_, c) -> Float.max acc c) 0.0 buckets in
  let rank = Float.max 1.0 (Float.ceil (p /. 100.0 *. total)) in
  let rec go lo prev = function
    | [] -> lo
    | (le, c) :: rest ->
        if c >= rank then lo +. ((le -. lo) *. (rank -. prev) /. (c -. prev))
        else go le c rest
  in
  go 0.0 0.0 buckets

let server_view text =
  match Metrics.parse text with
  | Error e -> Error ("METRICS body does not parse: " ^ e)
  | Ok samples ->
      let get name = Option.value (Metrics.find samples name) ~default:Float.nan in
      Ok
        {
          requests_total = get "qp_serve_requests_total";
          quotes_total = get "qp_serve_quotes_total";
          errors_total = get "qp_serve_errors_total";
          shed_total = get "qp_serve_shed_total";
          request_p50_s = bucket_quantile samples "qp_serve_request_seconds" 50.0;
          request_p99_s = bucket_quantile samples "qp_serve_request_seconds" 99.0;
        }

(* The broker's counters must equal the client's tallies; [control] is
   the number of requests other than the mix (HEALTH and INFO). *)
let check_view report v t ~control =
  Report.check report
    (v.requests_total = Float.of_int (requests t + control))
    (Printf.sprintf "METRICS requests_total %g, client sent %d" v.requests_total
       (requests t + control));
  Report.check report
    (v.quotes_total = Float.of_int (t.prices + t.quotes))
    (Printf.sprintf "METRICS quotes_total %g, client got %d" v.quotes_total
       (t.prices + t.quotes));
  Report.check report (v.errors_total = 0.0) "METRICS errors_total is not 0";
  Report.check report (v.shed_total = 0.0) "METRICS shed_total is not 0"

(* --- per-call timings inside the broker ------------------------------- *)

(* Times [Protocol.parse_request], [Broker.quote_index] and
   [Broker.quote_sql] one call at a time over [n] requests of the mix;
   medians in seconds. *)
let call_timings broker sqls next ~n =
  let reqs = List.init n (fun _ -> next ()) in
  let timed label calls =
    Qp_obs.with_span label @@ fun () ->
    Measure.median_list
      (List.map
         (fun f ->
           let s = Measure.now_ns () in
           f ();
           Measure.since s)
         calls)
  in
  let parse =
    timed "bench.protocol.parse_request"
      (List.map (fun r () -> ignore (Pr.parse_request (line sqls r))) reqs)
  in
  let of_verb v = List.filter (fun r -> r.verb = v) reqs in
  let index =
    timed "bench.broker.quote_index"
      (List.map (fun r () -> ignore (B.quote_index broker r.index)) (of_verb Price))
  in
  let sql =
    timed "bench.broker.quote_sql"
      (List.map (fun r () -> ignore (B.quote_sql broker sqls.(r.index))) (of_verb Quote))
  in
  (parse, index, sql)

(* --- a [qpricing serve] process --------------------------------------- *)

(* The CLI is built next to this executable: <build>/default/bin. *)
let qpricing =
  Filename.concat
    (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
    "qpricing.exe"

type proc = {
  pid : int;
  socket : string;
  mutable control : int;  (** requests sent outside the mix *)
}

let listen p = Server.Unix_socket p.socket

(* Children still running; killed if the benchmark exits early. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let reaped pid = live := List.filter (( <> ) pid) !live

(* Spawns [qpricing serve] and waits for its first [HEALTH serving]
   reply; returns the process and the seconds from spawn to that reply. *)
let spawn ~workload ~seed ~socket ~log ~trace_file =
  if not (Sys.file_exists qpricing) then failwith (qpricing ^ " is not built");
  (try Sys.remove socket with Sys_error _ -> ());
  let args =
    [ qpricing; "serve"; workload; "--pricing"; "lpip"; "--seed";
      string_of_int seed; "--model"; Settings.model_arg; "--profile"; "quick";
      "--jobs"; string_of_int Settings.jobs; "--socket"; socket ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = Measure.now_ns () in
  let pid = Unix.create_process qpricing (Array.of_list args) Unix.stdin out out in
  Unix.close out;
  live := pid :: !live;
  let p = { pid; socket; control = 0 } in
  let rec await () =
    if Measure.since t0 > 150.0 then failwith "server did not come up in 150 s";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        reaped pid;
        failwith ("server exited during start-up; see " ^ log));
    match Server.connect ~retries:0 (listen p) with
    | exception Unix.Unix_error _ ->
        Unix.sleepf 0.002;
        await ()
    | c ->
        let reply = Server.call c Pr.Health in
        Server.close_client c;
        p.control <- p.control + 1;
        if reply <> Ok (Pr.Health_reply Pr.Serving) then begin
          Unix.sleepf 0.002;
          await ()
        end
  in
  await ();
  (p, Measure.since t0)

let with_client p f =
  let c = Server.connect ~retries:0 (listen p) in
  Fun.protect ~finally:(fun () -> Server.close_client c) (fun () -> f c)

let info p = with_client p (fun c -> Server.call c Pr.Info)
let scrape p = with_client p Server.scrape

(* Sends SHUTDOWN and waits for the process to drain and exit 0. *)
let shutdown p =
  let bye = with_client p (fun c -> Server.call c Pr.Shutdown) in
  let _, status = Unix.waitpid [] p.pid in
  reaped p.pid;
  bye = Ok Pr.Bye && status = Unix.WEXITED 0

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

type conn = {
  fd : Unix.file_descr;
  mutable pending : string;  (** bytes read past the last full line *)
  mutable inflight : (req * int64) option;
}

(* A closed loop over [Settings.connections] fresh connections from this
   one process: each connection sends its next request only after the
   reply to the previous one has arrived, until [seconds] have passed.
   Adds to the tally [t]. *)
let closed_loop report p oracle sqls next t ~seconds =
  let conns =
    List.init Settings.connections (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX p.socket);
        { fd; pending = ""; inflight = None })
  in
  let send c =
    let r = next () in
    let s = Measure.now_ns () in
    write_all c.fd (line sqls r ^ "\n");
    c.inflight <- Some (r, s)
  in
  let t0 = Measure.now_ns () in
  List.iter send conns;
  let buf = Bytes.create 65536 in
  let rec loop active =
    if active <> [] then begin
      let ready, _, _ =
        try Unix.select (List.map (fun c -> c.fd) active) [] [] 30.0
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if ready = [] && Measure.since t0 > seconds +. 30.0 then
        failwith "server stopped answering";
      let finished =
        List.filter
          (fun c ->
            List.mem c.fd ready
            &&
            let n = Unix.read c.fd buf 0 (Bytes.length buf) in
            if n = 0 then failwith "server closed a connection";
            c.pending <- c.pending ^ Bytes.sub_string buf 0 n;
            match String.index_opt c.pending '\n', c.inflight with
            | Some k, Some (r, s) ->
                let dt = Measure.since s in
                let reply = Pr.parse_response (String.sub c.pending 0 k) in
                c.pending <- String.sub c.pending (k + 1) (String.length c.pending - k - 1);
                record report t oracle r dt reply;
                if Measure.since t0 < seconds then (send c; false)
                else (c.inflight <- None; true)
            | _ -> false)
          active
      in
      loop (List.filter (fun c -> not (List.memq c finished)) active)
    end
  in
  loop conns;
  t.elapsed <- t.elapsed +. Measure.since t0;
  List.iter (fun c -> Unix.close c.fd) conns
