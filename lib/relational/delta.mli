(** Single-tuple perturbations of a database instance.

    A support-set element (a "neighboring database" in Qirana's sense)
    is represented as the seller's instance [D] plus one delta, which
    keeps the support compact and lets the evaluator work
    incrementally. *)

type t =
  | Cell_change of { relation : string; row : int; col : int; value : Value.t }
      (** The instance identical to [D] except that cell
          [(row, col)] of [relation] holds [value]. *)
  | Row_drop of { relation : string; row : int }
      (** The instance identical to [D] with one tuple removed. *)

val relation : t -> string
(** The (single) relation the delta touches. *)

val apply : Database.t -> t -> Database.t
(** Materialize the perturbed instance. [Cell_change] must name an
    existing cell and produce a well-typed value; [Row_drop] an existing
    row. *)

val is_noop : Database.t -> t -> bool
(** A [Cell_change] writing the value already present. Support sampling
    filters these out. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering, e.g. for conflict-set dumps. *)
