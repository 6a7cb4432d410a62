(** Small descriptive-statistics helpers for the experiment harness. *)

val mean : float array -> float
(** Arithmetic mean; 0 for the empty array. *)

val stddev : float array -> float
(** Sample standard deviation (n−1 divisor); 0 for arrays shorter
    than 2. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0, 100], linear interpolation between
    order statistics. Requires a non-empty array. *)

val percentile_nearest : float array -> float -> float
(** Nearest-rank percentile: the [ceil (p/100 * n)]-th smallest element
    (1-based), so the result is always an observed value — used for the
    trace report's latency summaries. [p] in [0, 100]; requires a
    non-empty array. [percentile_nearest xs 0.] is the minimum,
    [percentile_nearest xs 100.] the maximum. *)

val minimum : float array -> float
(** Smallest element; requires a non-empty array. *)

val maximum : float array -> float
(** Largest element; requires a non-empty array. *)

val sum : float array -> float
(** Left-to-right sum; 0 for the empty array. *)
