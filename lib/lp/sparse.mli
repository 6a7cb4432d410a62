(** Sparse column vectors for the revised simplex engine.

    A column stores only its nonzero entries as parallel (row index,
    value) arrays with strictly increasing indices. It is also the
    constraint-row format: {!Lp} hands {!Simplex} each row as a [col]
    over variable indices, which the engine transposes into its matrix
    of columns, plus a row-wise copy ({!rows}) for the dual pivot row.

    The kernels {!price} and {!row_combination} run once per pivot
    over the whole matrix. They allocate nothing, and each sum they
    form adds the same products in the same order as {!dot}, so their
    results are bit-identical to a [dot] per column. *)

type col = { idx : int array; v : float array }
(** Nonzero entries of one column (or constraint row); [idx] strictly
    increasing, no stored [v] equal to [0.0]. *)

val empty : col
(** The all-zero column. *)

val nnz : col -> int
(** Number of stored nonzeros. *)

val of_dense : float array -> col
(** Compress a dense vector, dropping exact zeros. *)

val unit : int -> float -> col
(** [unit r x] is the column with single entry [x] at row [r]
    ({!empty} when [x = 0]). *)

val dot : col -> float array -> float
(** [dot c y] is the inner product of [c] with a dense vector. *)

val scatter : col -> float array -> unit
(** [scatter c w] writes [c]'s entries into dense [w] (caller zeroes
    [w] first). *)

type rows
(** A row-wise (CSR) copy of the columns [0, ncols) of a matrix. *)

val rows_of_cols : nrows:int -> col array -> ncols:int -> rows
(** [rows_of_cols ~nrows cols ~ncols] stores [cols.(0) .. cols.(ncols - 1)]
    (entries in rows [0, nrows)) row by row. *)

val row_combination : rows -> float array -> float array -> unit
(** [row_combination a rho alpha] sets [alpha.(j)] to [rho . A_j] for
    every column [j] of [a], summing over the nonzero [rho.(i)] in
    increasing [i]. For finite entries each [alpha.(j)] is bit-identical
    to [dot cols.(j) rho]: the skipped terms are exact [+-0] products
    and the sum starts at [+0.0]. Costs the nonzeros of the rows where
    [rho] is nonzero, plus one pass over [alpha]. *)

val price :
  col array -> cost:float array -> y:float array -> basic:bool array ->
  limit:int -> etol:float -> first:bool -> float array -> int
(** [price cols ~cost ~y ~basic ~limit ~etol ~first rc] prices the
    non-basic columns [j < limit] at reduced cost
    [cost.(j) -. dot cols.(j) y] (bit-identical to it). Returns the
    column of largest reduced cost above [etol], the first on ties —
    or, when [first] (Bland's rule), the first column above [etol] —
    and writes its reduced cost to [rc.(0)]. Returns [-1] when no
    column prices above [etol]. *)
