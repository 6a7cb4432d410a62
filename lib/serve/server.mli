(** The request loop behind [qpricing serve]: a single-threaded
    [Unix.select] server speaking {!Protocol} over a Unix-domain or TCP
    stream socket, plus the small client used by the bench, the tests,
    the [--smoke] mode and [qpricing probe].

    One loop handles every connection — requests are answered strictly
    in arrival order from the cached {!Broker} state, so serving is
    deterministic for a fixed request sequence. Lifecycle (load →
    precompute → loop → drain) and the shutdown/drain contract are
    documented in [docs/SERVING.md].

    Survivability: per-connection deadlines run on the monotonic clock
    and reap idle or stalled-reader connections with a typed
    [ERR timeout]; admission control ([?max_conns], the pending-bytes
    high-water mark) sheds [PRICE]/[QUOTE] with [ERR overloaded] while
    cheap verbs keep answering; a client vanishing mid-exchange bumps
    [serve.client_gone] and never takes the accept loop down. The
    select timeout is derived from the nearest pending deadline — no
    deadline, no busy-wake. *)

(** Where to listen (or connect): a filesystem socket path, or a TCP
    host/port. *)
type listen = Unix_socket of string | Tcp of { host : string; port : int }

val serve :
  ?backlog:int ->
  ?max_requests:int ->
  ?should_stop:(unit -> bool) ->
  ?idle_timeout:float ->
  ?write_deadline:float ->
  ?max_conns:int ->
  ?max_pending_bytes:int ->
  listen ->
  Broker.t ->
  unit
(** Bind, listen and answer requests until a client sends [SHUTDOWN],
    [max_requests] request lines have been handled, or [should_stop ()]
    (polled between select rounds) returns [true]. On any of these the
    server stops accepting (lifecycle → [Draining]), drains every
    pending response ([BYE] included), closes all connections, and —
    for a Unix socket — unlinks the path. [backlog] (default 16) is the
    listen queue; a pre-existing socket file at the path is unlinked
    before binding. Per-connection I/O errors (reset, broken pipe)
    close that connection only, counted as [client_gone] when a reply
    or request was in flight; request-level failures never reach this
    loop — {!Broker.handle} maps them to typed [ERR] replies.

    Deadlines (both [None] — disabled — by default; seconds, measured
    on the monotonic clock): a connection idle past [idle_timeout]
    receives one [ERR timeout] and closes after draining; a connection
    whose buffered output the client has not accepted within
    [write_deadline] (or that exceeds the 4 MiB output bound) is a
    stalled reader and is dropped. Both bump the broker's [timeouts]
    counter. Admission control: with more than [max_conns] connections,
    or more than [max_pending_bytes] (default 1 MiB) of buffered
    request+response bytes, [PRICE]/[QUOTE] are shed with
    [ERR overloaded] until the pressure clears ([HEALTH] reports
    [overloaded]; [PING]/[STATS]/[METRICS]/[HEALTH] always answer).
    The ["serve.io"] fault site (key = bytes transferred) injects
    connection resets in this loop. *)

type client
(** One client connection to a running broker. *)

(** A reply line as {!read_line} got it: whole (newline stripped), cut
    short by the connection ending before its newline, or none. *)
type line = Line of string | Cut of string | Closed

val connect : ?retries:int -> listen -> client
(** Connect, retrying refused/absent endpoints (default 100 attempts,
    20 ms apart) so a client racing a just-spawned server wins. Raises
    [Unix.Unix_error] once the retries are exhausted. *)

val send_line : client -> string -> bool
(** Write one raw request line and its newline; [false] when the broker
    is gone (reset or broken pipe; ignore SIGPIPE, as {!serve} does).
    Other transport errors raise [Unix.Unix_error]. *)

val read_line : client -> line
(** Block for the next reply line; EOF, a reset or a broken pipe end
    the connection, other transport errors raise [Unix.Unix_error]. *)

val call : client -> Protocol.request -> (Protocol.response, string) result
(** Send one request and block for its one reply line. [Error] carries
    a transport, cut-short or parse message; protocol-level failures are
    [Ok (Error_reply _)]. For {!Protocol.Metrics} use {!scrape}. *)

val scrape : client -> (string, string) result
(** Send [METRICS] and read the multi-line Prometheus exposition body
    up to (excluding) the {!Protocol.metrics_terminator} line. [Error]
    carries a transport or cut-short message or the broker's one-line
    [ERR] reply (e.g. an injected fault). Decode with {!Metrics.parse}. *)

val close_client : client -> unit
(** Close; safe to call twice. *)
