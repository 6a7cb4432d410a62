(** Support-set generation (§3.2, following Qirana's strategy).

    The support is a set of "neighboring" databases: instances from [I]
    that differ from the seller's instance [D] in a few places. Each
    element is stored as a {!Qp_relational.Delta.t} against [D], which
    is both storage-efficient (Qirana's observation) and what makes
    incremental conflict-set computation possible. *)

module Delta = Qp_relational.Delta
module Database = Qp_relational.Database

type config = {
  row_drop_fraction : float;
      (** fraction of support elements that drop a tuple rather than
          perturb a cell (default 0.2) *)
  domain_sample_bias : float;
      (** probability that a perturbed cell draws its new value from the
          column's active domain rather than a local mutation
          (default 0.5); active-domain draws make perturbations visible
          to equality predicates, local mutations to range predicates *)
}

val default_config : config
(** [{ row_drop_fraction = 0.2; domain_sample_bias = 0.5 }]. *)

val generate :
  ?config:config -> rng:Qp_util.Rng.t -> Database.t -> n:int -> Delta.t array
(** [generate ~rng db ~n] draws [n] {e distinct}, non-no-op deltas.
    Relations are picked proportionally to their cardinality. Raises
    [Invalid_argument] if the database is empty or cannot yield [n]
    distinct deltas within a generous retry budget. *)

val generate_query_aware :
  ?config:config ->
  ?uniform_share:float ->
  rng:Qp_util.Rng.t ->
  queries:Qp_relational.Query.t list ->
  Database.t ->
  n:int ->
  Delta.t array
(** Like {!generate}, but biases cell perturbations toward the
    (relation, column) pairs the query workload actually reads, with a
    [uniform_share] (default 0.25) of plain uniform draws to keep
    coverage of untouched columns.

    This implements the "choosing the support set" direction from the
    paper's §7.2: at reduced data scale, uniformly sampled neighbors
    rarely intersect the footprint of selective queries, leaving their
    conflict sets empty; steering the perturbations toward referenced
    columns restores the hyperedge-size distribution the paper observes
    at full scale. The benches include an ablation comparing the two
    samplers. *)
