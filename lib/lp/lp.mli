(** Incremental linear-program builder over {!Simplex}.

    Models problems of the form {b maximize} (or minimize) [c . x]
    subject to linear [<=], [>=] and [=] constraints with non-negative
    variables. [>=] and [=] rows are rewritten into [<=] form before the
    simplex runs ([=] becomes a pair of inequalities), and dual values
    are mapped back to the user-facing constraints with the right sign.
    Each [<=] row reaches {!Simplex} as a sparse row ({!Sparse.col} over
    variable indices): a repeated variable's coefficients are summed in
    [terms] order from [0.0], a sum equal to [0.0] is dropped, and a
    [>=] row's coefficients are negated. No dense row is ever built.

    Typical use, pricing-flavoured:
    {[
      let p = Lp.create () in
      let w = Array.init n (fun i -> Lp.add_var p ~obj:(coef i) ()) in
      List.iter (fun edge ->
        ignore (Lp.add_le p (terms_of edge w) (value edge))) edges;
      match Lp.solve p with
      | Ok sol -> Array.map (Lp.value sol) w
      | Error _ -> ...
    ]} *)

type t
type var
type constr

type solution

type error =
  | Infeasible
  | Unbounded
  | Budget_exhausted of Simplex.diagnostics
      (** the solver ran out of pivot budget — {b not} infeasibility *)
  | Numerical_error of Simplex.diagnostics
      (** non-finite arithmetic detected — {b not} infeasibility *)

val error_tag : error -> string
(** Stable short tag ([infeasible], [unbounded], [budget_exhausted],
    [numerical_error]) for counters and structured records. *)

val describe_error : error -> string
(** One-line human-readable description, including pivot counts and the
    failure detail for solver-side errors. *)

val create : ?minimize:bool -> unit -> t
(** A fresh empty problem; maximization unless [minimize] is set. *)

val add_var : t -> obj:float -> unit -> var
(** A new non-negative variable with the given objective coefficient. *)

val var_count : t -> int
(** Variables added so far; the next {!add_var} gets this index. *)

val constr_count : t -> int
(** Constraints added so far, in every sense. *)

val add_le : t -> (float * var) list -> float -> constr
(** [add_le p terms b] adds [sum terms <= b]. Repeated variables in
    [terms] are summed. *)

val add_ge : t -> (float * var) list -> float -> constr
(** [add_ge p terms b] adds [sum terms >= b], like {!add_le}. *)

val add_eq : t -> (float * var) list -> float -> constr
(** [add_eq p terms b] adds [sum terms = b], like {!add_le}. *)

val solve : ?max_pivots:int -> t -> (solution, error) result
(** Solve the problem as built so far: the first resolve of a fresh
    family, [Batch.resolve (Batch.prepare ?max_pivots p)], so it reports
    the same outcomes and trace as any sweep member. [max_pivots] means
    the same as in {!Simplex.solve}; the stall threshold is
    {!Simplex.prepare}'s default. Solver give-ups surface as
    [Error (Budget_exhausted _ | Numerical_error _)] — never as an
    exception — so callers must not conflate them with [Infeasible]. *)

(** Warm-started solving of builder-level LP families: capture the
    expanded matrix of a problem once, then re-solve with new objective
    coefficients and/or constraint bounds, reusing the previous optimal
    basis via {!Simplex.resolve}. The variable/constraint handles of the
    captured problem keep working against every solution the batch
    produces. *)
module Batch : sig
  type problem := t

  type t
  (** A prepared family: the expanded [<=]-form sparse rows plus the
      warm state, and the objective and rhs arrays each {!resolve}
      rewrites in place. Not thread-safe; use one batch per worker. *)

  val prepare : ?max_pivots:int -> problem -> t
  (** Snapshot the problem as built so far (later [add_var]/[add_*] calls
      on the source problem are not reflected). No solve happens yet. *)

  val resolve :
    ?obj:float array -> ?bounds:float array -> t -> (solution, error) result
  (** [resolve ?obj ?bounds bt] solves the family member with objective
      [obj] (one coefficient per variable, in [add_var] order; defaults
      to the previous member's) and constraint bounds [bounds] (one per
      user constraint in [add_*] order, replacing each row's original
      bound; senses are fixed at {!prepare} time). The first call runs
      cold; subsequent calls warm-start from the previous optimal basis
      and silently fall back to a cold solve on any warm-path failure —
      outcomes are identical to rebuilding and calling {!solve}, only
      faster. *)
end

val objective_value : solution -> float
(** The optimal objective, in the problem's own sense (a minimization
    reports its minimum). *)

val value : solution -> var -> float
(** Optimal primal value of a variable. *)

val dual : solution -> constr -> float
(** Optimal dual multiplier of a constraint. For a [<=] row in a
    maximization this is the non-negative shadow price; for [>=] rows
    the sign convention is flipped accordingly; for [=] rows it is the
    net multiplier of the two generated inequalities. *)

val var_index : var -> int
(** Position of a variable in [add_var] order — the slot it occupies in
    {!Batch.resolve}'s [obj] array. *)
