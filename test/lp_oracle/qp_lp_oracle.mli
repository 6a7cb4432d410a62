(** Reference oracle for {!Qp_lp.Simplex}, for tests and benchmarks only.

    The production solver is the revised simplex in [qp_lp]. This
    library keeps the original dense two-phase tableau as an independent
    second opinion, and plugs it into the solver's single seam,
    {!Qp_lp.Simplex.with_oracle}. Nothing under [lib/] or [bin/] may link
    it. *)

module Dense : sig
  val solve :
    ?max_pivots:int ->
    c:float array ->
    rows:(float array * float) array ->
    unit ->
    Qp_lp.Simplex.outcome
  (** The dense-tableau two-phase primal simplex: same problem, pivot
      budget and typed outcomes as {!Qp_lp.Simplex.solve}, with the same
      pivot rules, default anti-cycling cutoffs and scale-relative
      tolerances, but every pivot eliminates the whole
      [O(rows * cols)] tableau. It has no fault-injection site and
      records nothing through [Qp_obs]. *)
end

val with_check : (unit -> 'a) -> 'a * int
(** [with_check body] runs [body] with an oracle installed that
    re-solves every LP the revised engine solves — one-shot and
    warm-started family members alike — on {!Dense} (densifying the
    member's sparse rows) and compares the
    two: the outcome constructor must match, optimal objectives must
    agree, and each engine's dual certificate must satisfy strong
    duality. Primal/dual vectors are not compared entry by entry,
    because alternate optima make them non-unique, and give-ups
    ([Budget_exhausted]/[Numerical_error]) on either side yield no
    verdict. It returns [body]'s result and the number of
    disagreements, counted atomically across worker domains. Each
    disagreement also bumps the ["simplex.cross_check_mismatch"]
    counter and emits an event of that name under tracing. Solves under
    active {!Qp_fault} injection are not checked. *)
