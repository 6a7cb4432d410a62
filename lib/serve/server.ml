(* Single-threaded select loop. Every connection keeps an input
   accumulator (bytes up to the next newline) and an output string
   (bytes the socket has not accepted yet); the loop only ever reads
   descriptors select reported readable and writes ones it reported
   writable, so a slow client cannot wedge the broker. Requests are
   dispatched in arrival order, which keeps serving deterministic for a
   fixed request sequence.

   Survivability (docs/SERVING.md, "Staying up"): deadlines run on the
   monotonic clock (never the wall clock — a stalled connection must
   not be saved or doomed by an NTP step). An idle connection gets one
   typed ERR timeout and closes after draining; a connection whose
   output the client will not accept past the write deadline (or past
   the output-buffer bound) is a stalled reader and is dropped.
   Admission control sheds PRICE/QUOTE with ERR overloaded past
   --max-conns or the pending-bytes high-water mark. The select timeout
   is derived from the nearest pending deadline, so deadline precision
   does not cost idle wakeups. *)

type listen = Unix_socket of string | Tcp of { host : string; port : int }

let sockaddr_of = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp { host; port } ->
      let addr =
        match Unix.inet_addr_of_string host with
        | a -> a
        | exception Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.ADDR_INET (addr, port)

(* A line that never terminates would otherwise grow the accumulator
   without bound; past this the connection gets one ERR and is closed
   after draining. *)
let max_line_bytes = 1 lsl 20

(* A reader that never drains its responses would grow [out] without
   bound (think a client streaming PRICE lines and reading nothing);
   past this the connection is a stalled reader and is dropped — no
   farewell line, it would only grow the buffer further. *)
let max_out_bytes = 4 * max_line_bytes

type conn = {
  fd : Unix.file_descr;
  mutable pending : string;  (* bytes received, no newline yet *)
  mutable out : string;  (* bytes not yet accepted by the socket *)
  mutable closing : bool;  (* close once [out] drains *)
  mutable last_activity : int64;  (* mono ns of the last bytes read *)
  mutable out_since : int64;  (* mono ns since [out] is nonempty; 0 = empty *)
}

let ns_of_seconds s = Int64.of_float (s *. 1e9)

let seconds_until ~now deadline_ns =
  Int64.to_float (Int64.sub deadline_ns now) /. 1e9

let serve ?(backlog = 16) ?max_requests ?should_stop ?idle_timeout
    ?write_deadline ?max_conns ?(max_pending_bytes = 1 lsl 20) listen broker =
  (* A peer closing mid-write must surface as EPIPE (handled per
     connection) — never as a process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let addr = sockaddr_of listen in
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (match listen with
  | Unix_socket path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true);
  Unix.bind sock addr;
  Unix.listen sock backlog;
  let conns = ref [] in
  let served = ref 0 in
  let stopping = ref false in
  let overloaded = ref false in
  let drop c =
    conns := List.filter (fun c' -> c'.fd != c.fd) !conns;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  (* A vanished peer (reset, broken pipe, or EOF with work in flight)
     closes that connection only — the accept loop must survive it. *)
  let client_gone c =
    Broker.note_client_gone broker;
    drop c
  in
  (* Deterministic I/O fault site: key = bytes transferred, so a chaos
     schedule depends on the shape of the traffic, not on arrival
     interleaving. Fires as a connection reset. *)
  let io_faulted n =
    Qp_fault.enabled ()
    && Qp_fault.check ~key:n "serve.io" <> None
  in
  let reply c resp =
    if c.out = "" then c.out_since <- Qp_util.Timing.now_ns ();
    c.out <- c.out ^ Protocol.print_response resp ^ "\n"
  in
  let handle_line c line =
    incr served;
    let resp = Broker.handle ~overloaded:!overloaded broker line in
    reply c resp;
    if resp = Protocol.Bye then stopping := true;
    match max_requests with
    | Some n when !served >= n -> stopping := true
    | _ -> ()
  in
  (* Split off every complete line in the accumulator and dispatch it. *)
  let rec drain_lines c =
    match String.index_opt c.pending '\n' with
    | None ->
        if String.length c.pending > max_line_bytes then begin
          c.pending <- "";
          reply c
            (Protocol.Error_reply (Protocol.Parse, "request line too long"));
          c.closing <- true
        end
    | Some i ->
        let line = String.sub c.pending 0 i in
        c.pending <-
          String.sub c.pending (i + 1) (String.length c.pending - i - 1);
        handle_line c line;
        if not c.closing then drain_lines c
  in
  let read_conn c =
    let buf = Bytes.create 4096 in
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 ->
        (* EOF with a reply undelivered or a request unfinished means
           the client vanished mid-exchange, not a clean goodbye. *)
        if c.out <> "" || c.pending <> "" then client_gone c else drop c
    | n ->
        if io_faulted n then client_gone c
        else begin
          c.last_activity <- Qp_util.Timing.now_ns ();
          c.pending <- c.pending ^ Bytes.sub_string buf 0 n;
          drain_lines c
        end
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        client_gone c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let write_conn c =
    match
      Unix.write_substring c.fd c.out 0 (String.length c.out)
    with
    | n ->
        if io_faulted n then client_gone c
        else begin
          c.out <- String.sub c.out n (String.length c.out - n);
          c.out_since <- (if c.out = "" then 0L else c.out_since)
        end
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        client_gone c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let stop_requested () =
    match should_stop with Some f -> f () | None -> false
  in
  (* Reap deadline violations. Idle past the timeout: one typed ERR
     timeout, then close-after-drain. Output unaccepted past the write
     deadline (or past the buffer bound): the client has stalled
     reading — there is no point writing a farewell it will not read,
     so the connection is dropped. *)
  let enforce_deadlines now =
    (match idle_timeout with
    | None -> ()
    | Some it ->
        let limit = ns_of_seconds it in
        List.iter
          (fun c ->
            if
              (not c.closing)
              && Int64.sub now c.last_activity > limit
            then begin
              Broker.note_timeout broker;
              reply c
                (Protocol.Error_reply
                   ( Protocol.Timeout,
                     Printf.sprintf "idle for more than %gs, closing" it ));
              c.closing <- true
            end)
          !conns);
    let stalled =
      List.filter
        (fun c ->
          String.length c.out > max_out_bytes
          ||
          match write_deadline with
          | Some wd ->
              c.out <> "" && Int64.sub now c.out_since > ns_of_seconds wd
          | None -> false)
        !conns
    in
    List.iter
      (fun c ->
        Broker.note_timeout broker;
        drop c)
      stalled
  in
  (* The select timeout is the time to the nearest pending deadline —
     clamped by a poll cap only when a should_stop callback needs
     polling (no deadline will wake us for it). Without deadlines or a
     stop callback this sleeps long instead of busy-waking. *)
  let select_timeout now =
    let cap = match should_stop with Some _ -> 0.05 | None -> 60.0 in
    List.fold_left
      (fun acc c ->
        let acc =
          match idle_timeout with
          | Some it when not c.closing ->
              Float.min acc
                (seconds_until ~now (Int64.add c.last_activity (ns_of_seconds it)))
          | _ -> acc
        in
        match write_deadline with
        | Some wd when c.out <> "" ->
            Float.min acc
              (seconds_until ~now (Int64.add c.out_since (ns_of_seconds wd)))
        | _ -> acc)
      cap !conns
    |> Float.max 0.0
  in
  let rec loop () =
    if (not !stopping) && stop_requested () then stopping := true;
    let now = Qp_util.Timing.now_ns () in
    enforce_deadlines now;
    (* Drop drained connections that asked to close. *)
    List.iter (fun c -> if c.closing && c.out = "" then drop c) !conns;
    (* Admission control, recomputed between select rounds: connection
       count over --max-conns, or buffered work over the high-water
       mark. The flag sheds only PRICE/QUOTE (Broker.handle) — cheap
       verbs still answer, so probes see live-but-saturated. *)
    let pending_bytes =
      List.fold_left
        (fun acc c -> acc + String.length c.pending + String.length c.out)
        0 !conns
    in
    Qp_obs.gauge_max "serve.pending_bytes" (float_of_int pending_bytes);
    overloaded :=
      (match max_conns with
      | Some m -> List.length !conns > m
      | None -> false)
      || pending_bytes > max_pending_bytes;
    Broker.set_lifecycle broker
      (if !stopping then Protocol.Draining
       else if !overloaded then Protocol.Overloaded
       else Protocol.Serving);
    let fully_drained = List.for_all (fun c -> c.out = "") !conns in
    if !stopping && fully_drained then ()
    else begin
      let reads =
        (if !stopping then [] else [ sock ])
        @ List.map (fun c -> c.fd) !conns
      in
      let writes =
        List.filter_map
          (fun c -> if c.out = "" then None else Some c.fd)
          !conns
      in
      match Unix.select reads writes [] (select_timeout now) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | rs, ws, _ ->
          List.iter
            (fun fd ->
              if fd == sock then begin
                match Unix.accept sock with
                | cfd, _ ->
                    Broker.note_connection broker;
                    let t = Qp_util.Timing.now_ns () in
                    conns :=
                      {
                        fd = cfd;
                        pending = "";
                        out = "";
                        closing = false;
                        last_activity = t;
                        out_since = 0L;
                      }
                      :: !conns
                | exception Unix.Unix_error (_, _, _) -> ()
              end
              else
                match List.find_opt (fun c -> c.fd == fd) !conns with
                | Some c -> read_conn c
                | None -> ())
            rs;
          List.iter
            (fun fd ->
              match List.find_opt (fun c -> c.fd == fd) !conns with
              | Some c -> write_conn c
              | None -> ())
            ws;
          loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        !conns;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      match listen with
      | Unix_socket path -> (
          try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> ())
    loop

(* --- client ----------------------------------------------------------- *)

(* The client reads through its own buffer, not an in_channel:
   [input_line] returns a last line that lost its newline as if it were
   whole, so a reply cut short by a dying broker would parse. *)
type client = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;  (* [buf.[pos, len)]: received, not yet read *)
  mutable len : int;
  mutable closed : bool;
}

type line = Line of string | Cut of string | Closed

let connect ?(retries = 100) listen =
  let addr = sockaddr_of listen in
  let rec go n =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when n > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.02;
        go (n - 1)
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  let fd = go retries in
  { fd; buf = Bytes.create 4096; pos = 0; len = 0; closed = false }

let send_line c line =
  let payload = line ^ "\n" in
  match Unix.write_substring c.fd payload 0 (String.length payload) with
  | _ -> true
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

let read_line c =
  let acc = Buffer.create 128 in
  let rec go () =
    match Bytes.index_from_opt c.buf c.pos '\n' with
    | Some i when i < c.len ->
        Buffer.add_subbytes acc c.buf c.pos (i - c.pos);
        c.pos <- i + 1;
        Line (Buffer.contents acc)
    | _ -> (
        Buffer.add_subbytes acc c.buf c.pos (c.len - c.pos);
        c.pos <- 0;
        c.len <- 0;
        (* A reset or broken pipe ends the connection as EOF does. *)
        match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
        | 0 | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
            if Buffer.length acc = 0 then Closed else Cut (Buffer.contents acc)
        | exception Unix.Unix_error (EINTR, _, _) -> go ()
        | n -> c.len <- n; go ())
  in
  go ()

(* Send [req], then feed reply lines to [on_line] until it has a result. *)
let exchange c req on_line =
  let rec next () =
    match read_line c with
    | Line l -> ( match on_line l with Some r -> r | None -> next ())
    | Cut l -> Error (Printf.sprintf "reply cut short: %S" l)
    | Closed -> Error "connection closed by server"
  in
  try
    if send_line c (Protocol.print_request req) then next ()
    else Error "connection closed by server"
  with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let call c req = exchange c req (fun l -> Some (Protocol.parse_response l))

(* METRICS is the one multi-line reply, up to its terminator line — or
   one ERR line with no terminator when refused (e.g. a fault). *)
let scrape c =
  let b = Buffer.create 2048 in
  exchange c Protocol.Metrics (fun l ->
      let t = String.trim l in
      if t = Protocol.metrics_terminator then Some (Ok (Buffer.contents b))
      else if
        Buffer.length b = 0
        && String.starts_with ~prefix:"ERR" (String.uppercase_ascii t)
      then Some (Error t)
      else (
        Buffer.add_string b (l ^ "\n");
        None))

let close_client c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end
