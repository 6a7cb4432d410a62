(** Named, scale-relative numeric tolerances for the simplex.

    {!Simplex}'s revised engine and the test-only dense-tableau oracle
    both build one {!t} per solve from the input data and
    compare against its fields instead of a bare absolute epsilon. Each
    threshold is [base * max(1, scale)] where [scale] is the largest
    input magnitude relevant to the quantity being tested, so a
    feasible instance with rhs values around [1e10] is not declared
    [Infeasible] just because phase 1 leaves [~1e-6] of roundoff —
    the regression the old absolute [1e-7] residual check had. *)

type t = {
  entering_phase1 : float;
      (** threshold for a positive phase-1 reduced cost; scales with
          [max (max_ij |a_ij|) (max_i |b_i|)] *)
  entering_phase2 : float;
      (** threshold for a positive phase-2 reduced cost; scales with
          [max_j |c_j|] *)
  feasibility : float;
      (** threshold for treating a basic value as zero (degeneracy
          detection, sign checks); scales with [max_i |b_i|] *)
  pivot : float;
      (** minimum magnitude accepted for a pivot element; scales with
          [max_ij |a_ij|] *)
  residual : float;
      (** phase-1 infeasibility threshold on the artificial-variable
          residual; scales with [max_i |b_i|] *)
}

val make : c:float array -> rows:(float array * float) array -> t
(** [make ~c ~rows] computes the tolerances for one instance of
    maximize [c . x] s.t. [a_i . x <= b_i], [x >= 0]. An [a_i] may list
    only its row's nonzeros (a {!Sparse.col}'s [v]): zeros never
    change a scale. *)

val ratio_lt : float -> float -> bool
(** [ratio_lt a b] — [a] is strictly smaller than ratio-test candidate
    [b], beyond relative noise. *)

val ratio_tied : float -> float -> bool
(** [ratio_tied a b] — [a] ties [b] within relative noise (used for the
    anti-cycling tie-break on the leaving row). *)
