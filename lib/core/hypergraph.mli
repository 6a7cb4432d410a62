(** The pricing instance: a hypergraph over support items (§3.3).

    Vertices are support-database indices; each buyer's query becomes a
    hyperedge (its conflict set) carrying the buyer's valuation. All
    pricing algorithms run on this structure. *)

type edge = {
  id : int;
  name : string;  (** buyer/query identifier for reports *)
  items : int array;  (** sorted, duplicate-free item indices *)
  valuation : float;  (** finite, [v_e >= 0] *)
}

type t

val create : n_items:int -> (string * int array * float) array -> t
(** [create ~n_items specs] with one [(name, items, valuation)] per
    buyer. Item indices must lie in [0, n_items); item arrays are sorted
    and deduplicated; valuations must be finite and non-negative
    ([Invalid_argument] otherwise, NaN and infinities included). *)

val n_items : t -> int
(** [n] — the support size. *)

val m : t -> int
(** Number of hyperedges (buyers). *)

val edges : t -> edge array
(** All hyperedges, indexed by [edge.id]. The array is the instance's
    own — treat it as read-only. *)

val edge : t -> int -> edge
(** [edge h id] — the hyperedge with identifier [id]. *)

val valuations : t -> float array
(** [v_e] per edge, in edge-id order — the vector the revenue bounds
    and LP objectives read. *)

val with_valuations : t -> float array -> t
(** Same structure, new valuations (the experiments redraw valuations
    over a fixed workload hypergraph). Raises [Invalid_argument] on an
    arity mismatch or a valuation that is not finite and non-negative. *)

val degree : t -> int -> int
(** [degree h j] — the number of edges item [j] belongs to. *)

val max_degree : t -> int
(** [B] — the maximum number of edges any item belongs to. *)

val max_edge_size : t -> int
(** [k]. *)

val avg_edge_size : t -> float
(** Mean conflict-set size over all buyers (the paper's workload
    tables report this next to [k]). *)

val sum_valuations : t -> float
(** [sum_e v_e] — the trivial revenue upper bound. *)

val edges_of_item : t -> int -> int list

(** {2 Item membership classes}

    Two items are equivalent when they belong to exactly the same set of
    edges. Edges contain classes wholly or not at all, so any additive
    pricing can aggregate a class's weight onto one representative item
    without changing any edge price. The LP-based algorithms exploit
    this to shrink their programs — often drastically on skewed
    workloads. *)

type classes = private {
  n_classes : int;
  class_of_item : int array;
  members : int array array;  (** items of each class *)
  class_edges : int array array;  (** sorted edge ids containing the class *)
  edge_classes : int array array;  (** class ids wholly inside each edge *)
}

val classes : t -> classes
(** Computed on first use and cached. *)

val spread_class_weights : t -> float array -> float array
(** [spread_class_weights h w_class] turns per-class aggregate weights
    into per-item weights: the whole class weight goes to the class's
    first member, 0 elsewhere. Edge prices are preserved. *)
