(** Unified tracing and metrics layer for the pricing pipeline.

    The library provides nested {e spans} (timed, labelled, with
    key/value arguments), monotonic {e counters}, high-water-mark
    {e gauges} and instant {e events}. Everything is a near-zero-cost
    no-op while tracing is disabled (the default): one atomic load per
    call site, no recording, no buffer growth.

    {2 Determinism}

    Events are recorded into per-domain buffers. A parallel section
    runs each task under {!capture} and the caller {!splice}s the
    captured buffers back {e in task order} — exactly the index-ordered
    merge {!Qp_util.Parallel} applies to results (the pool does this
    automatically). Consequently the trace {e structure} — span labels,
    nesting, order, arguments, counter totals, gauge values — is a pure
    function of the work performed and is bit-identical at any
    [QP_JOBS]; only timestamps differ between runs ({!structure} is the
    timestamp-free rendering tests pin).

    Counters are integer sums (commutative, order-free) and gauges are
    maxima, so both aggregate deterministically under any worker
    interleaving.

    Recording, export and reset are designed to be driven from the main
    domain; worker domains only ever record under {!capture} (see
    {!Qp_util.Parallel}). See [docs/OBSERVABILITY.md] for the span
    taxonomy and the trace file format. *)

(** Argument value attached to a span or event. *)
type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

val enabled : unit -> bool
(** Whether tracing is currently on. Cheap (one atomic load); hot paths
    may use it to skip argument construction entirely. *)

val set_enabled : bool -> unit
(** Turn tracing on or off. Turning it on stamps the trace epoch —
    subsequent timestamps are monotonic-clock nanoseconds relative to
    this moment. *)

val reset : unit -> unit
(** Drop all recorded events, counters and gauges, and re-stamp the
    trace epoch. Call from the main domain between traced sections. *)

val with_span : ?args:(unit -> (string * arg) list) -> string -> (unit -> 'a) -> 'a
(** [with_span label f] runs [f ()] inside a span named [label]. [args]
    is a thunk so disabled-mode calls build nothing; it is evaluated
    once, at span open. The span closes (and is recorded) even if [f]
    raises. Disabled mode is exactly [f ()]. *)

val annotate : (unit -> (string * arg) list) -> unit
(** Attach arguments to the innermost open span of the current domain,
    recorded on its closing event — for measurements only known at the
    end of the work (pivot counts, result sizes). No-op when disabled or
    outside any span. *)

val event : ?args:(unit -> (string * arg) list) -> string -> unit
(** Record an instant event (Chrome "i" phase) at the current time. *)

val counter : string -> int -> unit
(** [counter label n] adds [n] to the monotonic counter [label].
    Totals are deterministic regardless of which domain increments. *)

val gauge_max : string -> float -> unit
(** [gauge_max label v] raises the gauge [label] to [v] if [v] exceeds
    its current value — a deterministic high-water mark. *)

(** {2 Histograms}

    Fixed log2-bucketed duration histograms. Every span records its
    duration — exactly its end minus begin trace timestamp, in
    monotonic-clock nanoseconds — and per-span GC deltas (minor/major
    words, via [Gc.counters]) into the histogram of its label
    automatically —
    but only while tracing is enabled; the disabled path is still a
    single atomic load. All histogram state is integer (counts,
    nanosecond sums, extrema), so accumulation is commutative and the
    per-label totals are bit-identical at any [QP_JOBS].

    Durations and GC deltas are deliberately {e not} attached to span
    args: they are timing-dependent, and args are part of the
    deterministic {!structure}. *)

(** Log2-bucketed latency histogram: bucket [i] covers
    [[2{^i}, 2{^i+1})] nanoseconds (bucket 0 also catches 0–1 ns). *)
module Hist : sig
  type t
  (** Mutable accumulator. Not thread-safe on its own — mutate from one
      domain, or via the global registry (which locks). *)

  (** Immutable copy of a histogram's state. [min_ns] is [max_int] and
      [max_ns] is [0] while [count = 0]. *)
  type snapshot = {
    count : int;  (** observations recorded *)
    sum_ns : int;  (** total duration, nanoseconds *)
    min_ns : int;  (** smallest observation, nanoseconds *)
    max_ns : int;  (** largest observation, nanoseconds *)
    gc_minor_words : int;  (** summed per-span minor-heap allocation *)
    gc_major_words : int;  (** summed per-span major-heap allocation *)
    buckets : int array;
        (** per-bucket counts; 48 buckets, each bound doubling, cover
            up to ~78 h *)
  }

  val bucket_upper_ns : int -> int
  (** Exclusive upper bound of bucket [i] in nanoseconds ([2{^i+1}]). *)

  val create : unit -> t
  (** A fresh empty accumulator. *)

  val record : ?gc_minor:int -> ?gc_major:int -> t -> int -> unit
  (** [record h ns] adds one observation of [ns] nanoseconds (clamped
      at 0), optionally accumulating GC word deltas. *)

  val snapshot : t -> snapshot
  (** Immutable copy of the current state (buckets are copied). *)

  val empty : snapshot
  (** The snapshot of a fresh accumulator; identity for {!merge}. *)

  val merge : snapshot -> snapshot -> snapshot
  (** Field-wise merge: counts/sums/buckets add, extrema min/max.
      Associative and commutative, hence order-free. *)

  val quantile_ns : snapshot -> float -> float
  (** [quantile_ns s p] estimates the [p]-th percentile ([0..100]) in
      nanoseconds: nearest-rank to a bucket, linear interpolation
      within it, clamped to the observed [min_ns]/[max_ns]. Returns 0
      for an empty snapshot. *)
end

val observe_ns : string -> int -> unit
(** [observe_ns label ns] records one observation into [label]'s global
    histogram without opening a span — for durations measured out of
    band. No-op (one atomic load) while disabled. *)

val histograms : unit -> (string * Hist.snapshot) list
(** Snapshot of every per-label histogram, sorted by label. Labels
    appear once their first span closes (or first {!observe_ns}).
    Counts and GC sums are deterministic at any [QP_JOBS]; durations
    are measured time and vary between runs. *)

(** {2 Parallel-section plumbing}

    Used by {!Qp_util.Parallel}; call directly only when hand-rolling a
    parallel section outside the pool. *)

type buf
(** A captured block of events, ready to be spliced into a trace. *)

val empty_buf : buf
(** The empty block; splicing it is a no-op. *)

val capture : (unit -> 'a) -> 'a * buf
(** [capture f] runs [f ()] with recording redirected to a fresh
    private buffer and returns it alongside the result. The caller's
    buffer and open-span stack are untouched (and restored even if [f]
    raises). Disabled mode runs [f] directly and returns {!empty_buf}. *)

val splice : buf -> unit
(** Append a captured block to the current domain's trace, as if its
    events had been recorded here, in their original order. Splice
    blocks in task index order to keep the trace deterministic. *)

(** {2 Introspection and export} *)

val span_count : unit -> int
(** Number of spans recorded in the current domain's trace buffer. *)

val counters : unit -> (string * int) list
(** Counter totals, sorted by label. *)

val gauges : unit -> (string * float) list
(** Gauge values, sorted by label. *)

val structure : unit -> string
(** Timestamp-free rendering of the trace: one line per span open
    ([span label [k=v ...]]), close arguments ([end [k=v ...]], printed
    only when non-empty) and instant event, indented by nesting depth,
    followed by all counters and gauges. Bit-identical at any [QP_JOBS];
    this is the string the determinism tests compare. *)

val to_chrome_lines : unit -> string list
(** The trace as Chrome trace-event JSON, one complete JSON object per
    line (JSONL): a process-name metadata record, then ["B"]/["E"] span
    records, ["i"] instants, and final ["C"] counter samples for every
    counter and gauge. Timestamps are microseconds since the epoch,
    clamped to be monotone so spliced worker events render well. *)

val write_chrome_trace : string -> unit
(** Write {!to_chrome_lines} to a file, one event per line. See
    [docs/OBSERVABILITY.md] for loading the file in Perfetto or
    [chrome://tracing]. *)
