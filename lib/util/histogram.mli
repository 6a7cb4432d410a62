(** Fixed-width histograms with a terminal renderer, used to reproduce
    the hyperedge-size distributions of Figure 4. *)

type t

val create : ?buckets:int -> int array -> t
(** [create ?buckets data] buckets integer observations into
    [buckets] (default 20) equal-width bins spanning the data range. *)

val bucket_count : t -> int
(** Number of bins; valid {!bucket} indices are [0 .. bucket_count - 1]. *)

val bucket : t -> int -> int * int * int
(** [bucket t i] is [(lo, hi, count)]: the inclusive-exclusive value
    range of bin [i] (the last bin is inclusive on both ends) and the
    number of observations that fell into it. *)

val render : ?log_scale:bool -> ?width:int -> t -> string
(** ASCII rendering, one line per bucket. With [log_scale] the bar
    length is proportional to [log10 (1 + count)], matching the log
    count axis used in Figures 4a, 4c and 4d. *)
