(** Eta-file basis factorization for the revised simplex engine in
    {!Simplex}.

    The basis inverse is represented as a product of elementary eta
    matrices: solving with it ([ftran]/[btran]) costs the fill of the
    file rather than O(m^2). An empty file represents the identity —
    which is exactly the initial basis of the transformed problem
    (slacks and artificials). Reinversion ({!factor}) writes a sparse
    LU factorization of the basis as etas; every simplex pivot then
    appends one product-form eta ({!push}) until the engine reinverts
    again.

    The etas sit back to back in one flat pool of growable arrays,
    reused across reinversions. A pivot costs one pass over the
    entering column ([push]) plus [ftran]/[btran] passes over the fill
    of the file; none of them allocates once the pool has grown to the
    largest file the engine has held. *)

type t

val create : int -> t
(** [create m] — an empty factorization (the identity) over [m] rows.
    The pool starts small (16 etas, 64 entries) and doubles on
    demand. *)

val reset : t -> unit
(** Drop every eta, back to the identity; storage is retained. *)

val eta_count : t -> int
(** Number of etas currently in the file. *)

val fill : t -> int
(** Total nonzeros stored across the file — the cost of one
    [ftran]/[btran] pass, and the fill-in gauge exported to
    {!Qp_obs}. *)

val eta : t -> int -> int * float * Sparse.col
(** [eta t k] is the [k]-th eta of the file (0 is applied first by
    {!ftran}): its pivot row, its pivot element and a copy of its
    off-pivot entries. For inspection and tests; allocates. *)

val push : t -> r:int -> float array -> unit
(** [push t ~r d] appends the eta for a pivot on row [r] of the
    (dense, already FTRAN'd) entering column [d]. Exact zeros are not
    stored; a trivial identity eta ([d = e_r]) is skipped entirely.
    One pass over [d], written straight into the pool: allocates
    nothing unless the pool has to grow. *)

val ftran : t -> float array -> unit
(** [ftran t w] replaces dense [w] with [B^-1 w] by applying every eta
    inverse in file order. *)

val btran : t -> float array -> unit
(** [btran t y] replaces dense [y] with [y B^-1] by applying every eta
    inverse in reverse file order. *)

val factor : t -> tol:float -> Sparse.col array -> int array option
(** [factor t ~tol cols] reinverts: [cols] are the [m] basis columns,
    and the file is replaced by a sparse LU factorization of them — the
    L etas in pivot order (unit pivots), then the U etas in reverse
    pivot order (pivot = the diagonal of U). Pivots are chosen by
    Markowitz cost, (row count - 1) * (column count - 1) in the active
    submatrix, among entries at least 0.1 times their column's largest
    active magnitude and above [tol]; column singletons (unit slacks,
    artificials) cost nothing and go first.

    Returns [Some slot] where column [k] now sits in basis row
    [slot.(k)], i.e. [ftran] maps [cols.(k)] to [e_(slot.(k))]. Returns
    [None] when the columns are numerically singular (an empty or
    all-below-[tol] active column, or no acceptable pivot); the file is
    then left unchanged. The etas are copied into the pool; the
    reinversion workspace, kept between calls, grows once and is then
    reused. *)
