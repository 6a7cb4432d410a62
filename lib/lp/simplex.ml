(* Two-phase primal simplex: a *revised* simplex engine.

   The constraint matrix is held as sparse columns (Sparse), the basis
   inverse as an eta file (Basis): a sparse LU of the basis written at
   each reinversion, then one product-form eta per pivot, with a
   reinversion every [default_refactor_every] pivots. Each iteration
   prices the non-basic columns against freshly BTRAN'd duals. Per-pivot
   cost is the fill of the eta file plus the nonzeros of the matrix,
   instead of a dense tableau's O(rows * cols) elimination — which is
   what lifts the LP scale wall for LPIP/CIP on larger supports.

   A primal pivot is one BTRAN (duals), one pricing pass over the
   columns (Sparse.price), one FTRAN of the entering column, the ratio
   test over the rows and one eta push: O(rows + nnz(A) + fill). A
   dual pivot adds a BTRAN of e_r and the pivot row, summed row-wise
   over the nonzeros of e_r B^-1 (Sparse.row_combination). The kernels
   allocate nothing: the etas live in a flat pool that the family's
   states share, and every scratch vector lives in the state, so a
   pivot allocates nothing in a release build (a dev build, compiled
   without cross-module inlining, boxes the floats it passes to
   Tolerance's ratio tests). The kernels do the same float operations
   in the same order as the closure-and-record code they replaced, so
   bases, pivot counts and prices are bit-identical to it.

   Warm re-solves ([resolve]) start from the previous member's optimal
   basis, but give up after twice the pivots of the family's last cold
   solve and re-solve cold: a warm chain that long costs more than
   starting over.

   The dense tableau this engine replaced lives on as a test-only
   reference oracle (the qp_lp_oracle library), attached through the one
   seam below, [with_oracle]. *)

type diagnostics = {
  pivots : int;
  phase1_pivots : int;
  degenerate_pivots : int;
  bland_engaged : bool;
  detail : string;
}

type outcome =
  | Optimal of solution
  | Unbounded
  | Infeasible
  | Budget_exhausted of diagnostics
  | Numerical_error of diagnostics

and solution = {
  objective : float;
  primal : float array;
  dual : float array;
}

(* --- oracle seam ------------------------------------------------------ *)

(* A global read from worker domains, like the warm-start switch below:
   tests install it around a whole pipeline run, before any worker
   starts. *)
let oracle_ref :
    (c:float array -> rows:(Sparse.col * float) array -> outcome -> unit)
    option
    ref =
  ref None

let with_oracle f body =
  let saved = !oracle_ref in
  oracle_ref := Some f;
  Fun.protect ~finally:(fun () -> oracle_ref := saved) body

(* Warm starts can be disabled globally: every resolve then runs the
   cold path, which is how `bench warmstart` measures its baseline. *)
let warm_ref = ref true
let warm_starts () = !warm_ref
let set_warm_starts b = warm_ref := b

type phase_result =
  | Phase_optimal
  | Phase_unbounded
  | Phase_budget of string
  | Phase_numerical of string

(* What an engine run reports back to [resolve] for tracing. *)
type run_stats = {
  s_pivots : int;
  s_phase1 : int;
  s_degenerate : int;
  s_bland : bool;
  s_etas : int;
  s_refactors : int;
  s_fill : int;
}

let note_bland_engaged ~pivots ~stall =
  Qp_obs.counter "simplex.bland_engaged" 1;
  Qp_obs.event "simplex.bland_engaged"
    ~args:(fun () ->
      [
        ("pivots", Qp_obs.Int pivots);
        ("consecutive_degenerate", Qp_obs.Int stall);
      ])

(* --- revised engine (sparse columns, eta-file basis) ------------------- *)

module Revised_engine = struct
  (* Column layout (the dense oracle's too): [0, nvars) structural,
     [nvars, nvars + nrows) slacks (coefficient = row sign), then one
     +1 artificial per negated row. The basis invariant is
     ftran(cols.(basis.(i))) = e_i and xb = ftran(b'), maintained by
     appending one eta per pivot and refreshed wholesale at
     refactorization. *)
  type state = {
    nvars : int;
    nrows : int;
    ncols : int;
    art_first : int;
    cols : Sparse.col array;
    rows : Sparse.rows; (* columns [0, art_first), row-wise *)
    cost1 : float array; (* phase-1 objective per column *)
    cost2 : float array; (* phase-2 objective per column *)
    b : float array; (* sign-transformed rhs, >= 0 *)
    sign : float array; (* per-row +-1, for dual extraction *)
    basis : int array; (* row -> column *)
    in_basis : bool array; (* column -> basic? *)
    xb : float array; (* current basic values, by row *)
    bas : Basis.t;
    y : float array; (* scratch: duals / btran workspace *)
    d : float array; (* scratch: FTRAN'd entering column *)
    alpha : float array; (* scratch: a row of B^-1 A, columns [0, art_first) *)
    bcols : Sparse.col array; (* scratch: the basis columns to reinvert *)
    moved : int array; (* scratch: the basis before reinversion *)
    (* One-cell float arrays hold the floats a pivot updates, so that
       updating them allocates nothing: the running objective and the
       entering column's reduced cost. *)
    obj : float array;
    rc : float array;
    mutable last_rebuild : int; (* eta count right after last reinversion *)
    mutable pivots : int;
    mutable degenerate : int;
    mutable stall : int;
    mutable bland : bool;
    mutable bland_ever : bool;
    mutable refactors : int;
    mutable max_fill : int;
    mutable max_pivots : int; (* a warm attempt lowers it to its cap *)
    stall_threshold : int;
    refactor_every : int;
    tol : Tolerance.t;
  }

  let zero (a : float array) = Array.fill a 0 (Array.length a) 0.0

  let costs st ~phase1 = if phase1 then st.cost1 else st.cost2

  (* y := c_B B^-1 for the current phase's objective. *)
  let compute_duals st ~phase1 =
    let cost = costs st ~phase1 in
    zero st.y;
    for i = 0 to st.nrows - 1 do
      let cb = cost.(st.basis.(i)) in
      if cb <> 0.0 then st.y.(i) <- cb
    done;
    Basis.btran st.bas st.y

  (* Entering column under the current rule among the columns
     [0, limit) — all of them in phase 1, the non-artificial ones after
     it — or -1; its reduced cost is left in [st.rc]. Mirrors the dense
     oracle: Dantzig picks the most positive reduced cost (first index
     on ties), Bland the smallest eligible index. Basic columns price to
     exactly zero and are skipped. *)
  let entering st ~phase1 ~limit ~etol =
    compute_duals st ~phase1;
    Sparse.price st.cols ~cost:(costs st ~phase1) ~y:st.y ~basic:st.in_basis
      ~limit ~etol ~first:st.bland st.rc

  (* d := B^-1 A_j (dense scratch). *)
  let ftran_col st j =
    zero st.d;
    Sparse.scatter st.cols.(j) st.d;
    Basis.ftran st.bas st.d

  let leaving st =
    let best = ref (-1) and best_ratio = ref infinity in
    for i = 0 to st.nrows - 1 do
      let a = st.d.(i) in
      if a > st.tol.Tolerance.pivot then begin
        let ratio = st.xb.(i) /. a in
        if
          Tolerance.ratio_lt ratio !best_ratio
          || (Tolerance.ratio_tied ratio !best_ratio
             && !best >= 0
             && st.basis.(i) < st.basis.(!best))
        then begin
          best := i;
          best_ratio := ratio
        end
      end
    done;
    !best

  (* Pivot column [q] (FTRAN'd in [st.d], reduced cost in [st.rc]) into
     row [r]. *)
  let pivot st ~r ~q =
    if Float.abs st.xb.(r) <= st.tol.Tolerance.feasibility then begin
      st.degenerate <- st.degenerate + 1;
      st.stall <- st.stall + 1
    end
    else st.stall <- 0;
    let theta = st.xb.(r) /. st.d.(r) in
    for i = 0 to st.nrows - 1 do
      if i <> r && st.d.(i) <> 0.0 then
        st.xb.(i) <- st.xb.(i) -. (theta *. st.d.(i))
    done;
    st.xb.(r) <- theta;
    st.obj.(0) <- st.obj.(0) +. (theta *. st.rc.(0));
    Basis.push st.bas ~r st.d;
    st.max_fill <- Int.max st.max_fill (Basis.fill st.bas);
    st.in_basis.(st.basis.(r)) <- false;
    st.in_basis.(q) <- true;
    st.basis.(r) <- q;
    st.pivots <- st.pivots + 1

  (* Reinversion: replace the eta file with a sparse LU of the current
     basis columns; each column moves to the basis row it pivoted on.
     Re-deriving xb from b' flushes the roundoff the incremental updates
     accumulate. Returns false on a numerically singular basis. *)
  let refactorize st ~phase1 =
    for i = 0 to st.nrows - 1 do
      st.bcols.(i) <- st.cols.(st.basis.(i))
    done;
    match Basis.factor st.bas ~tol:st.tol.Tolerance.pivot st.bcols with
    | None -> false
    | Some slot ->
        Array.blit st.basis 0 st.moved 0 st.nrows;
        for k = 0 to st.nrows - 1 do
          st.basis.(slot.(k)) <- st.moved.(k)
        done;
        Array.blit st.b 0 st.xb 0 st.nrows;
        Basis.ftran st.bas st.xb;
        let cost = costs st ~phase1 in
        st.obj.(0) <- 0.0;
        for i = 0 to st.nrows - 1 do
          st.obj.(0) <- st.obj.(0) +. (cost.(st.basis.(i)) *. st.xb.(i))
        done;
        st.last_rebuild <- Basis.eta_count st.bas;
        st.max_fill <- Int.max st.max_fill (Basis.fill st.bas);
        st.refactors <- st.refactors + 1;
        Qp_obs.counter "simplex.refactorizations" 1;
        true

  let run_phase st ~phase1 ~limit ~etol =
    let start = st.pivots in
    let bland_after =
      if st.stall_threshold = max_int then max_int
      else max 2000 (20 * (st.nrows + st.nvars))
    in
    st.bland <- false;
    st.stall <- 0;
    let rec loop () =
      if Qp_fault.enabled () then
        match Qp_fault.check ~key:st.pivots "simplex.pivot" with
        | Some Qp_fault.Fail -> raise (Qp_fault.Injected "simplex.pivot")
        | Some Qp_fault.Nan -> Phase_numerical "injected nan"
        | Some Qp_fault.Stall -> Phase_budget "injected stall"
        | None -> step ()
      else step ()
    and step () =
      if st.pivots >= st.max_pivots then
        Phase_budget (Printf.sprintf "pivot budget %d exceeded" st.max_pivots)
      else begin
        if
          (not st.bland)
          && (st.stall > st.stall_threshold || st.pivots - start > bland_after)
        then begin
          st.bland <- true;
          st.bland_ever <- true;
          note_bland_engaged ~pivots:st.pivots ~stall:st.stall
        end;
        if
          Basis.eta_count st.bas - st.last_rebuild >= st.refactor_every
          && not (refactorize st ~phase1)
        then Phase_numerical "singular basis at refactorization"
        else begin
          let q = entering st ~phase1 ~limit ~etol in
          if q < 0 then Phase_optimal
          else begin
            ftran_col st q;
            let r = leaving st in
            if r < 0 then Phase_unbounded
            else begin
              pivot st ~r ~q;
              if Float.is_finite st.obj.(0) then loop ()
              else Phase_numerical "non-finite objective after pivot"
            end
          end
        end
      end
    in
    loop ()

  let diagnostics st ~phase1_pivots ~detail =
    {
      pivots = st.pivots;
      phase1_pivots;
      degenerate_pivots = st.degenerate;
      bland_engaged = st.bland_ever;
      detail;
    }

  (* Drive degenerate artificials out of the basis after phase 1, like
     the dense oracle's row scan: tableau row i is e_i B^-1 A, formed
     row-wise from the nonzeros of the BTRAN'd unit vector. *)
  let drive_out st =
    for i = 0 to st.nrows - 1 do
      if st.basis.(i) >= st.art_first then begin
        zero st.y;
        st.y.(i) <- 1.0;
        Basis.btran st.bas st.y;
        Sparse.row_combination st.rows st.y st.alpha;
        let found = ref (-1) and j = ref 0 in
        while !found < 0 && !j < st.art_first do
          if
            (not st.in_basis.(!j))
            && Float.abs st.alpha.(!j) > st.tol.Tolerance.pivot
          then found := !j;
          incr j
        done;
        if !found >= 0 then begin
          ftran_col st !found;
          st.rc.(0) <- 0.0;
          pivot st ~r:i ~q:!found
        end
      end
    done

  (* The constraint matrix in the column layout above. It depends on
     the rows and on which rhs are negative (those rows are negated and
     get an artificial column), so a family builds it once per sign
     pattern and shares it between the states of its solves. *)
  type matrix = {
    negated : bool array;
    cols : Sparse.col array;
    rows : Sparse.rows; (* columns [0, art_first), for the pivot row *)
  }

  let fits mx (rhs : float array) =
    let ok = ref true in
    for i = 0 to Array.length rhs - 1 do
      if mx.negated.(i) <> (rhs.(i) < 0.0) then ok := false
    done;
    !ok

  (* Transposes the sparse rows into sign-transformed columns in
     O(nnz): scanning the rows in order puts each column's entries in
     increasing row order. *)
  let make_matrix ~nvars (rows : Sparse.col array) (rhs : float array) =
    let nrows = Array.length rows in
    let negated = Array.map (fun b -> b < 0.0) rhs in
    let n_art =
      Array.fold_left (fun acc n -> if n then acc + 1 else acc) 0 negated
    in
    let art_first = nvars + nrows in
    let ncols = art_first + n_art in
    let counts = Array.make nvars 0 in
    Array.iter
      (fun (a : Sparse.col) ->
        Array.iter (fun j -> counts.(j) <- counts.(j) + 1) a.idx)
      rows;
    let cols = Array.make ncols Sparse.empty in
    for j = 0 to nvars - 1 do
      if counts.(j) > 0 then
        cols.(j) <-
          { Sparse.idx = Array.make counts.(j) 0; v = Array.make counts.(j) 0.0 }
    done;
    let fillk = Array.make nvars 0 in
    for i = 0 to nrows - 1 do
      let a = rows.(i) and s = if negated.(i) then -1.0 else 1.0 in
      for k = 0 to Array.length a.Sparse.idx - 1 do
        let j = a.Sparse.idx.(k) in
        let col = cols.(j) and n = fillk.(j) in
        col.Sparse.idx.(n) <- i;
        col.Sparse.v.(n) <- s *. a.Sparse.v.(k);
        fillk.(j) <- n + 1
      done
    done;
    (* slacks (coefficient = row sign), then one +1 artificial per
       negated row *)
    let next_art = ref art_first in
    for i = 0 to nrows - 1 do
      cols.(nvars + i) <- Sparse.unit i (if negated.(i) then -1.0 else 1.0);
      if negated.(i) then begin
        cols.(!next_art) <- Sparse.unit i 1.0;
        incr next_art
      end
    done;
    { negated; cols; rows = Sparse.rows_of_cols ~nrows cols ~ncols:art_first }

  (* Build a fresh state over [matrix]: slack basis (artificials on
     negated rows), xb = b, and the eta file [bas] emptied to the
     identity (a family hands the same file to each of its states, so
     its pool and reinversion workspace are grown only once). The family
     keeps the state alive across solves to warm-start the next
     member. *)
  let make_state ~tol ~max_pivots ~stall_threshold ~refactor_every ~matrix ~bas
      ~c ~rhs =
    let nvars = Array.length c in
    let nrows = Array.length rhs in
    let cols = matrix.cols in
    let ncols = Array.length cols in
    let art_first = nvars + nrows in
    let sign = Array.make nrows 1.0 and b = Array.make nrows 0.0 in
    let basis = Array.make nrows 0 in
    let next_art = ref art_first in
    for i = 0 to nrows - 1 do
      if matrix.negated.(i) then begin
        sign.(i) <- -1.0;
        basis.(i) <- !next_art;
        incr next_art
      end
      else basis.(i) <- nvars + i;
      b.(i) <- sign.(i) *. rhs.(i)
    done;
    let in_basis = Array.make ncols false in
    Array.iter (fun q -> in_basis.(q) <- true) basis;
    let cost1 = Array.make ncols 0.0 and cost2 = Array.make ncols 0.0 in
    Array.fill cost1 art_first (ncols - art_first) (-1.0);
    Array.blit c 0 cost2 0 nvars;
    Basis.reset bas;
    {
      nvars;
      nrows;
      ncols;
      art_first;
      cols;
      rows = matrix.rows;
      cost1;
      cost2;
      b;
      sign;
      basis;
      in_basis;
      xb = Array.copy b;
      bas;
      y = Array.make nrows 0.0;
      d = Array.make nrows 0.0;
      alpha = Array.make art_first 0.0;
      bcols = Array.make nrows Sparse.empty;
      moved = Array.make nrows 0;
      obj = [| 0.0 |];
      rc = [| 0.0 |];
      last_rebuild = 0;
      pivots = 0;
      degenerate = 0;
      stall = 0;
      bland = false;
      bland_ever = false;
      refactors = 0;
      max_fill = 0;
      max_pivots;
      stall_threshold;
      refactor_every;
      tol;
    }

  let stats_of st ~phase1_pivots =
    {
      s_pivots = st.pivots;
      s_phase1 = phase1_pivots;
      s_degenerate = st.degenerate;
      s_bland = st.bland_ever;
      s_etas = Basis.eta_count st.bas;
      s_refactors = st.refactors;
      s_fill = st.max_fill;
    }

  (* Read the optimal solution out of the current basis. The objective
     is recomputed from scratch instead of trusting the running total,
     and a non-finite value anywhere downgrades the verdict. *)
  let extract_optimal st ~phase1_pivots =
    let primal = Array.make st.nvars 0.0 in
    for i = 0 to st.nrows - 1 do
      if st.basis.(i) < st.nvars then primal.(st.basis.(i)) <- st.xb.(i)
    done;
    let objective = ref 0.0 in
    for i = 0 to st.nrows - 1 do
      objective := !objective +. (st.cost2.(st.basis.(i)) *. st.xb.(i))
    done;
    compute_duals st ~phase1:false;
    let dual = Array.make st.nrows 0.0 in
    let finite = ref (Float.is_finite !objective) in
    for i = 0 to st.nrows - 1 do
      dual.(i) <- st.sign.(i) *. st.y.(i);
      if not (Float.is_finite dual.(i)) then finite := false
    done;
    for j = 0 to st.nvars - 1 do
      if not (Float.is_finite primal.(j)) then finite := false
    done;
    let finite = !finite in
    if finite then Optimal { objective = !objective; primal; dual }
    else
      Numerical_error
        (diagnostics st ~phase1_pivots
           ~detail:"non-finite value in reported solution")

  let recompute_obj st =
    st.obj.(0) <- 0.0;
    for i = 0 to st.nrows - 1 do
      st.obj.(0) <- st.obj.(0) +. (st.cost2.(st.basis.(i)) *. st.xb.(i))
    done

  let cold_solve st =
    let nrows = st.nrows in
    let art_first = st.art_first in
    let n_art = st.ncols - st.art_first in
    let tol = st.tol in
    let phase1 =
      if n_art = 0 then `Feasible
      else begin
        for i = 0 to nrows - 1 do
          if st.basis.(i) >= art_first then
            st.obj.(0) <- st.obj.(0) -. st.xb.(i)
        done;
        match
          run_phase st ~phase1:true ~limit:st.ncols
            ~etol:tol.Tolerance.entering_phase1
        with
        | Phase_unbounded ->
            (* The phase-1 objective is bounded by 0; reaching this means
               the arithmetic went bad, not the instance. *)
            `Abort
              (Numerical_error
                 (diagnostics st ~phase1_pivots:st.pivots
                    ~detail:"phase 1 reported unbounded"))
        | Phase_budget detail ->
            `Abort
              (Budget_exhausted
                 (diagnostics st ~phase1_pivots:st.pivots ~detail))
        | Phase_numerical detail ->
            `Abort
              (Numerical_error (diagnostics st ~phase1_pivots:st.pivots ~detail))
        | Phase_optimal ->
            let residual = ref 0.0 in
            for i = 0 to nrows - 1 do
              if st.basis.(i) >= art_first then
                residual := !residual +. st.xb.(i)
            done;
            if !residual > tol.Tolerance.residual then `Infeasible
            else begin
              drive_out st;
              `Feasible
            end
      end
    in
    let phase1_pivots = st.pivots in
    let outcome =
      match phase1 with
      | `Abort outcome -> outcome
      | `Infeasible -> Infeasible
      | `Feasible -> begin
          recompute_obj st;
          match
            run_phase st ~phase1:false ~limit:art_first
              ~etol:tol.Tolerance.entering_phase2
          with
          | Phase_unbounded -> Unbounded
          | Phase_budget detail ->
              Budget_exhausted (diagnostics st ~phase1_pivots ~detail)
          | Phase_numerical detail ->
              Numerical_error (diagnostics st ~phase1_pivots ~detail)
          | Phase_optimal -> extract_optimal st ~phase1_pivots
        end
    in
    (outcome, stats_of st ~phase1_pivots)

  (* --- warm re-solve --------------------------------------------------- *)

  (* Dual simplex: from a dual-feasible basis (all phase-2 reduced costs
     <= 0) whose basic solution violates primal feasibility (some
     xb < 0), repeatedly drop the most negative basic variable and bring
     in the column minimizing the dual ratio d_j / alpha_j over
     alpha_j < 0 in the pivot row — which preserves dual feasibility
     while shrinking the primal violation. Terminates Phase_optimal with
     a primal-feasible (hence optimal) basis, or Phase_unbounded when a
     negative row has no negative tableau entry, i.e. the LP is primal
     infeasible. Artificial columns never re-enter. *)
  let run_dual_phase st =
    Qp_obs.with_span "simplex.dual_phase"
      ~args:(fun () -> [ ("rows", Qp_obs.Int st.nrows) ])
    @@ fun () ->
    let before = st.pivots in
    let rho = Array.make st.nrows 0.0 in
    let rec loop () =
      if Qp_fault.enabled () then
        match Qp_fault.check ~key:st.pivots "simplex.pivot" with
        | Some Qp_fault.Fail -> raise (Qp_fault.Injected "simplex.pivot")
        | Some Qp_fault.Nan -> Phase_numerical "injected nan"
        | Some Qp_fault.Stall -> Phase_budget "injected stall"
        | None -> step ()
      else step ()
    and step () =
      if st.pivots >= st.max_pivots then
        Phase_budget (Printf.sprintf "pivot budget %d exceeded" st.max_pivots)
      else if
        Basis.eta_count st.bas - st.last_rebuild >= st.refactor_every
        && not (refactorize st ~phase1:false)
      then Phase_numerical "singular basis at refactorization"
      else begin
        let r = ref (-1) and worst = ref (-.st.tol.Tolerance.feasibility) in
        for i = 0 to st.nrows - 1 do
          if st.xb.(i) < !worst then begin
            r := i;
            worst := st.xb.(i)
          end
        done;
        if !r < 0 then Phase_optimal
        else begin
          let r = !r in
          (* rho := e_r B^-1; alpha_j = rho . A_j is the pivot-row entry
             of column j, formed row-wise over the nonzeros of rho. *)
          zero rho;
          rho.(r) <- 1.0;
          Basis.btran st.bas rho;
          Sparse.row_combination st.rows rho st.alpha;
          compute_duals st ~phase1:false;
          let q = ref (-1) and best = ref infinity and q_rc = ref 0.0 in
          for j = 0 to st.art_first - 1 do
            if not st.in_basis.(j) then begin
              let alpha = st.alpha.(j) in
              if alpha < -.st.tol.Tolerance.pivot then begin
                let dj = st.cost2.(j) -. Sparse.dot st.cols.(j) st.y in
                let ratio = dj /. alpha in
                if Tolerance.ratio_lt ratio !best then begin
                  q := j;
                  best := ratio;
                  q_rc := dj
                end
              end
            end
          done;
          if !q < 0 then Phase_unbounded
          else begin
            ftran_col st !q;
            if Float.abs st.d.(r) <= st.tol.Tolerance.pivot then
              Phase_numerical "vanishing dual pivot"
            else begin
              st.rc.(0) <- !q_rc;
              pivot st ~r ~q:!q;
              if Float.is_finite st.obj.(0) then loop ()
              else Phase_numerical "non-finite objective after pivot"
            end
          end
        end
      end
    in
    let result = loop () in
    Qp_obs.annotate (fun () ->
        [
          ("dual_pivots", Qp_obs.Int (st.pivots - before));
          ( "result",
            Qp_obs.Str
              (match result with
              | Phase_optimal -> "optimal"
              | Phase_unbounded -> "infeasible"
              | Phase_budget _ -> "budget"
              | Phase_numerical _ -> "numerical") );
        ]);
    result

  type warm_result =
    | Warm of outcome * run_stats * int (* dual-phase pivots *)
    | Warm_fallback of string

  (* Re-solve from the previous optimal basis after the objective and/or
     rhs moved. Order of operations matters:

     1. objective change, OLD rhs: the basis is still primal feasible,
        so a primal phase-2 run restores optimality — and with it dual
        feasibility for the new objective, which step 2 requires;
     2. rhs change: xb := B^-1 b'. If primal feasibility survives we are
        already optimal (duals depend only on basis and objective);
        otherwise the dual phase restores it without touching phase 1;
     3. a final primal phase-2 sweep mops up roundoff-scale dual
        infeasibility left behind by refactorizations in the dual phase.

     Any non-optimal phase outcome (and a basic artificial drifting off
     zero, which would silently violate a dependent row) surfaces as
     Warm_fallback, and so does running past [cap] pivots; the caller
     then runs a cold solve, so warm-starting never changes which
     outcomes are reachable — only how fast the Optimal ones are found. *)
  let warm_solve st ~c ~rhs ~cap =
    st.max_pivots <- cap;
    st.pivots <- 0;
    st.degenerate <- 0;
    st.stall <- 0;
    st.bland <- false;
    st.bland_ever <- false;
    st.refactors <- 0;
    let c_changed = ref false in
    for j = 0 to st.nvars - 1 do
      if st.cost2.(j) <> c.(j) then begin
        st.cost2.(j) <- c.(j);
        c_changed := true
      end
    done;
    let rhs_changed = ref false in
    for i = 0 to st.nrows - 1 do
      if st.b.(i) <> st.sign.(i) *. rhs.(i) then rhs_changed := true
    done;
    let primal2 () =
      recompute_obj st;
      run_phase st ~phase1:false ~limit:st.art_first
        ~etol:st.tol.Tolerance.entering_phase2
    in
    let finish ~dual_pivots =
      (* Guard: a basic artificial off zero means this basis no longer
         satisfies a dependent row under the new rhs. *)
      let art_bad = ref false in
      for i = 0 to st.nrows - 1 do
        if
          st.basis.(i) >= st.art_first
          && Float.abs st.xb.(i) > st.tol.Tolerance.residual
        then art_bad := true
      done;
      if !art_bad then Warm_fallback "basic artificial off zero"
      else
        Warm
          (extract_optimal st ~phase1_pivots:0, stats_of st ~phase1_pivots:0,
           dual_pivots)
    in
    let step1 = if !c_changed then primal2 () else Phase_optimal in
    match step1 with
    | Phase_budget detail -> Warm_fallback ("phase 2 on old rhs: " ^ detail)
    | Phase_numerical detail -> Warm_fallback detail
    | Phase_unbounded ->
        if !rhs_changed then
          (* the certificate ray is rhs-independent, but feasibility of
             the new rhs is unknown from here — let the cold path decide
             between Unbounded and Infeasible *)
          Warm_fallback "unbounded under old rhs"
        else Warm (Unbounded, stats_of st ~phase1_pivots:0, 0)
    | Phase_optimal ->
        if not !rhs_changed then finish ~dual_pivots:0
        else begin
          for i = 0 to st.nrows - 1 do
            st.b.(i) <- st.sign.(i) *. rhs.(i)
          done;
          Array.blit st.b 0 st.xb 0 st.nrows;
          Basis.ftran st.bas st.xb;
          recompute_obj st;
          let feasible = ref true in
          for i = 0 to st.nrows - 1 do
            if st.xb.(i) < -.st.tol.Tolerance.feasibility then feasible := false
          done;
          if !feasible then finish ~dual_pivots:0
          else begin
            let before = st.pivots in
            match run_dual_phase st with
            | Phase_budget detail -> Warm_fallback ("dual phase: " ^ detail)
            | Phase_numerical detail -> Warm_fallback detail
            | Phase_unbounded ->
                (* dual ray = primal infeasibility certificate *)
                Warm (Infeasible, stats_of st ~phase1_pivots:0, st.pivots - before)
            | Phase_optimal -> (
                let dual_pivots = st.pivots - before in
                match primal2 () with
                | Phase_optimal -> finish ~dual_pivots
                | Phase_unbounded ->
                    Warm (Unbounded, stats_of st ~phase1_pivots:0, dual_pivots)
                | Phase_budget detail ->
                    Warm_fallback ("cleanup phase 2: " ^ detail)
                | Phase_numerical detail -> Warm_fallback detail)
          end
        end
end

(* --- families: the one way into the engine ----------------------------- *)

let outcome_tag = function
  | Optimal _ -> "optimal"
  | Unbounded -> "unbounded"
  | Infeasible -> "infeasible"
  | Budget_exhausted _ -> "budget_exhausted"
  | Numerical_error _ -> "numerical_error"

(* Product-form etas appended between two reinversions. Each
   reinversion costs about 1.0-1.1 ms on a 701-row SSB basis (the mean
   over the 611 reinversions of perfbench's SSB CIP and LPIP sweeps at
   jobs 1, release build, 2-CPU 2.1 GHz Xeon; 1.76 ms before the
   reinversion stopped allocating its etas and search state), about a
   quarter of those sweeps' LP time; each appended eta lengthens every
   later FTRAN/BTRAN pass. On the serial SSB sweeps the two balance from
   32 to 64 (equal wall time within noise); at 128 the FTRAN/BTRAN work
   is 1.7x that at 64. *)
let default_refactor_every = 40

let refactor_every = function
  | Some k -> max 1 k
  | None -> default_refactor_every

(* A family is a sequence of LPs over one shared constraint matrix whose
   members differ only in objective and/or rhs. The sparse columns and
   their row-wise copy are built once, at the first cold solve (again
   only if a member moves some rhs across zero, which changes the row
   signs), and the optimal basis of member k seeds member k+1, so a
   typical sweep step costs a handful of primal/dual pivots instead of a
   full two-phase solve. A one-shot [solve] is the first resolve of a
   fresh family. *)
type family = {
  f_nvars : int;
  f_nrows : int;
  f_c : float array; (* current objective *)
  f_rows : Sparse.col array; (* shared sparse rows, never mutated *)
  f_rhs : float array; (* current rhs *)
  f_max_pivots : int;
  f_stall : int;
  f_refactor : int option;
  mutable f_matrix : Revised_engine.matrix option;
  (* the eta file of whichever state is current *)
  f_bas : Basis.t;
  (* Some iff the previous resolve ended Optimal, i.e. the saved basis
     is a valid warm-start seed. *)
  mutable f_state : Revised_engine.state option;
  (* pivot count of the family's last cold solve — the yardstick
     for the pivots-saved accounting of subsequent warm hits *)
  mutable f_cold_pivots : int;
}

let prepare ?(max_pivots = 50_000) ?(stall_threshold = 1024) ?refactor_every
    ~c ~rows () =
  let nvars = Array.length c in
  Array.iter
    (fun ((a : Sparse.col), _) ->
      Array.iter (fun j -> assert (0 <= j && j < nvars)) a.idx)
    rows;
  {
    f_nvars = nvars;
    f_nrows = Array.length rows;
    f_c = Array.copy c;
    f_rows = Array.map fst rows;
    f_rhs = Array.map snd rows;
    f_max_pivots = max_pivots;
    f_stall = stall_threshold;
    f_refactor = refactor_every;
    f_matrix = None;
    f_bas = Basis.create (Array.length rows);
    f_state = None;
    f_cold_pivots = 0;
  }

let resolve ?c ?rhs fam =
  (match c with
  | None -> ()
  | Some c ->
      assert (Array.length c = fam.f_nvars);
      Array.blit c 0 fam.f_c 0 fam.f_nvars);
  (match rhs with
  | None -> ()
  | Some r ->
      assert (Array.length r = fam.f_nrows);
      Array.blit r 0 fam.f_rhs 0 fam.f_nrows);
  Qp_obs.with_span "simplex.solve"
    ~args:(fun () ->
      [
        ("rows", Qp_obs.Int fam.f_nrows);
        ("vars", Qp_obs.Int fam.f_nvars);
        ("warm_seed", Qp_obs.Bool (!warm_ref && fam.f_state <> None));
      ])
  @@ fun () ->
  Qp_obs.counter "simplex.solves" 1;
  let cold () =
    let matrix =
      match fam.f_matrix with
      | Some mx when Revised_engine.fits mx fam.f_rhs -> mx
      | _ ->
          let mx =
            Revised_engine.make_matrix ~nvars:fam.f_nvars fam.f_rows fam.f_rhs
          in
          fam.f_matrix <- Some mx;
          mx
    in
    (* a row's nonzeros give the scale its dense form would *)
    let tol =
      Tolerance.make ~c:fam.f_c
        ~rows:
          (Array.mapi (fun i (a : Sparse.col) -> (a.v, fam.f_rhs.(i))) fam.f_rows)
    in
    let refactor_every = refactor_every fam.f_refactor in
    let st =
      Revised_engine.make_state ~tol ~max_pivots:fam.f_max_pivots
        ~stall_threshold:fam.f_stall ~refactor_every ~matrix ~bas:fam.f_bas
        ~c:fam.f_c ~rhs:fam.f_rhs
    in
    let outcome, stats = Revised_engine.cold_solve st in
    fam.f_state <-
      (match outcome with Optimal _ -> Some st | _ -> None);
    fam.f_cold_pivots <- stats.s_pivots;
    (outcome, stats)
  in
  let outcome, stats, warm_hit, dual_pivots =
    match fam.f_state with
    | Some st when !warm_ref -> (
        (* A warm attempt that needs more than twice the family's last
           cold solve is cheaper abandoned: it falls back cold. *)
        let cap = min fam.f_max_pivots (max 64 (2 * fam.f_cold_pivots)) in
        match Revised_engine.warm_solve st ~c:fam.f_c ~rhs:fam.f_rhs ~cap with
        | Revised_engine.Warm (outcome, stats, dp) ->
            (match outcome with Optimal _ -> () | _ -> fam.f_state <- None);
            (outcome, stats, true, dp)
        | Revised_engine.Warm_fallback reason ->
            fam.f_state <- None;
            let wasted = st.Revised_engine.pivots in
            Qp_obs.counter "simplex.warm_wasted_pivots" wasted;
            Qp_obs.event "simplex.warm_fallback"
              ~args:(fun () ->
                [ ("reason", Qp_obs.Str reason); ("pivots", Qp_obs.Int wasted) ]);
            let outcome, stats = cold () in
            (outcome, stats, false, 0))
    | _ ->
        let outcome, stats = cold () in
        (outcome, stats, false, 0)
  in
  (match outcome with
  | Budget_exhausted _ -> Qp_obs.counter "simplex.budget_exhausted" 1
  | Numerical_error _ -> Qp_obs.counter "simplex.numerical_error" 1
  | Optimal _ | Unbounded | Infeasible -> ());
  Qp_obs.counter "simplex.pivots" stats.s_pivots;
  Qp_obs.counter
    (if warm_hit then "simplex.warm_hit" else "simplex.warm_miss")
    1;
  if warm_hit then begin
    let saved = max 0 (fam.f_cold_pivots - stats.s_pivots) in
    Qp_obs.counter "simplex.warm_pivots_saved" saved;
    Qp_obs.gauge_max "simplex.warm_pivots_saved_max" (Float.of_int saved)
  end;
  if Qp_obs.enabled () then begin
    (* the member's cold shape: one artificial per negative rhs *)
    let n_art =
      Array.fold_left (fun acc b -> if b < 0.0 then acc + 1 else acc) 0 fam.f_rhs
    in
    Qp_obs.gauge_max "simplex.max_rows" (Float.of_int fam.f_nrows);
    Qp_obs.gauge_max "simplex.max_cols"
      (Float.of_int (fam.f_nvars + fam.f_nrows + n_art));
    if stats.s_etas > 0 then begin
      Qp_obs.gauge_max "simplex.max_eta_len" (Float.of_int stats.s_etas);
      Qp_obs.gauge_max "simplex.max_eta_fill" (Float.of_int stats.s_fill)
    end
  end;
  Qp_obs.annotate (fun () ->
      [
        ("pivots", Qp_obs.Int stats.s_pivots);
        ("phase1_pivots", Qp_obs.Int stats.s_phase1);
        ("phase2_pivots", Qp_obs.Int (stats.s_pivots - stats.s_phase1));
        ("degenerate_pivots", Qp_obs.Int stats.s_degenerate);
        ("bland_engaged", Qp_obs.Bool stats.s_bland);
        ("etas", Qp_obs.Int stats.s_etas);
        ("refactorizations", Qp_obs.Int stats.s_refactors);
        ("dual_pivots", Qp_obs.Int dual_pivots);
        ("warm_hit", Qp_obs.Bool warm_hit);
        ("outcome", Qp_obs.Str (outcome_tag outcome));
      ]);
  (* the oracle sees the member just solved, warm-started or not *)
  (match !oracle_ref with
  | None -> ()
  | Some f ->
      f ~c:fam.f_c ~rows:(Array.mapi (fun i a -> (a, fam.f_rhs.(i))) fam.f_rows)
        outcome);
  outcome

let solve ?max_pivots ?stall_threshold ?refactor_every ~c ~rows () =
  resolve (prepare ?max_pivots ?stall_threshold ?refactor_every ~c ~rows ())
