(* The dense-tableau reference oracle for Qp_lp.Simplex.

   Production solves run the revised engine only; this library keeps
   the original dense two-phase tableau alive for tests and benchmarks,
   plus the cross-check that pins the two engines to each other. It
   shares the revised engine's pivot rules (Dantzig pricing, Bland's-rule
   stall fallback, identical ratio-test tie-breaking) and its
   scale-relative Tolerance thresholds, so on well-conditioned instances
   they agree to rounding. There is no fault-injection site here: the
   oracle only ever runs with faults disarmed. *)

module Simplex = Qp_lp.Simplex
module Sparse = Qp_lp.Sparse
module Tolerance = Qp_lp.Tolerance

module Dense = struct
  type phase_result =
    | Phase_optimal
    | Phase_unbounded
    | Phase_budget of string
    | Phase_numerical of string

  (* Tableau layout: columns [0, nvars) are structural variables, columns
     [nvars, nvars + nrows) are slacks, then one artificial column per
     row whose rhs was negative. Each row is stored with its rhs in the
     last cell. [obj] holds the reduced costs of the current basis;
     [obj_val] the current objective value. *)
  type tableau = {
    nvars : int;
    nrows : int;
    ncols : int;
    rows : float array array;
    obj : float array;
    mutable obj_val : float;
    basis : int array;
    art_first : int; (* index of the first artificial column *)
    mutable pivots : int;
    mutable degenerate : int; (* pivots whose leaving row had rhs ~ 0 *)
    max_pivots : int;
    mutable stall : int; (* consecutive degenerate pivots *)
    mutable bland : bool; (* anti-cycling rule active in this phase *)
    mutable bland_ever : bool;
    tol : Tolerance.t;
  }

  let pivot t r col =
    let row = t.rows.(r) in
    let p = row.(col) in
    if Float.abs row.(t.ncols) <= t.tol.Tolerance.feasibility then begin
      t.degenerate <- t.degenerate + 1;
      t.stall <- t.stall + 1
    end
    else t.stall <- 0;
    for j = 0 to t.ncols do
      row.(j) <- row.(j) /. p
    done;
    let eliminate target =
      let f = target.(col) in
      if Float.abs f > 0.0 then
        for j = 0 to t.ncols do
          target.(j) <- target.(j) -. (f *. row.(j))
        done
    in
    for i = 0 to t.nrows - 1 do
      if i <> r then eliminate t.rows.(i)
    done;
    let f = t.obj.(col) in
    if Float.abs f > 0.0 then begin
      for j = 0 to t.ncols do
        t.obj.(j) <- t.obj.(j) -. (f *. row.(j))
      done;
      t.obj_val <- t.obj_val +. (f *. row.(t.ncols))
    end;
    t.basis.(r) <- col;
    t.pivots <- t.pivots + 1

  (* Entering-column choice: Dantzig's rule until the anti-cycling
     fallback engages, then Bland's rule (smallest eligible index), which
     guarantees termination under degeneracy. [allowed] filters out banned
     columns (artificials during phase 2). *)
  let entering t ~allowed ~etol =
    if t.bland then begin
      let found = ref (-1) in
      (try
         for j = 0 to t.ncols - 1 do
           if allowed j && t.obj.(j) > etol then begin
             found := j;
             raise Exit
           end
         done
       with Exit -> ());
      !found
    end
    else begin
      let best = ref (-1) and best_val = ref etol in
      for j = 0 to t.ncols - 1 do
        if allowed j && t.obj.(j) > !best_val then begin
          best := j;
          best_val := t.obj.(j)
        end
      done;
      !best
    end

  (* Ratio test with lexicographic-ish tie-breaking on the basis index,
     which in combination with Bland's entering rule prevents cycling. *)
  let leaving t col =
    let best = ref (-1) and best_ratio = ref infinity in
    for i = 0 to t.nrows - 1 do
      let a = t.rows.(i).(col) in
      if a > t.tol.Tolerance.pivot then begin
        let ratio = t.rows.(i).(t.ncols) /. a in
        if
          Tolerance.ratio_lt ratio !best_ratio
          || (Tolerance.ratio_tied ratio !best_ratio
             && !best >= 0
             && t.basis.(i) < t.basis.(!best))
        then begin
          best := i;
          best_ratio := ratio
        end
      end
    done;
    !best

  (* Anti-cycling: Bland's rule engages when the phase stalls — more
     than [stall_threshold] consecutive degenerate pivots (a cycle is
     all-degenerate, so any cycle trips this quickly) — or, as a legacy
     backstop, after an absolute pivot count. Both cutoffs are the
     revised engine's defaults. *)
  let stall_threshold = 1024

  let run_phase t ~allowed ~etol =
    let start = t.pivots in
    let bland_after = max 2000 (20 * (t.nrows + t.nvars)) in
    t.bland <- false;
    t.stall <- 0;
    let rec loop () =
      if t.pivots >= t.max_pivots then
        Phase_budget (Printf.sprintf "pivot budget %d exceeded" t.max_pivots)
      else begin
        if
          (not t.bland)
          && (t.stall > stall_threshold || t.pivots - start > bland_after)
        then begin
          t.bland <- true;
          t.bland_ever <- true
        end;
        let col = entering t ~allowed ~etol in
        if col < 0 then Phase_optimal
        else
          let r = leaving t col in
          if r < 0 then Phase_unbounded
          else begin
            pivot t r col;
            if Float.is_finite t.obj_val then loop ()
            else Phase_numerical "non-finite objective after pivot"
          end
      end
    in
    loop ()

  let diagnostics t ~phase1_pivots ~detail =
    {
      Simplex.pivots = t.pivots;
      phase1_pivots;
      degenerate_pivots = t.degenerate;
      bland_engaged = t.bland_ever;
      detail;
    }

  let solve ?(max_pivots = 50_000) ~c ~rows () =
    let nvars = Array.length c in
    let nrows = Array.length rows in
    Array.iter (fun (a, _) -> assert (Array.length a = nvars)) rows;
    let tol = Tolerance.make ~c ~rows in
    let negated = Array.map (fun (_, b) -> b < 0.0) rows in
    let n_art =
      Array.fold_left (fun acc n -> if n then acc + 1 else acc) 0 negated
    in
    let art_first = nvars + nrows in
    let ncols = nvars + nrows + n_art in
    let t =
      {
        nvars;
        nrows;
        ncols;
        rows = Array.init nrows (fun _ -> Array.make (ncols + 1) 0.0);
        obj = Array.make (ncols + 1) 0.0;
        obj_val = 0.0;
        basis = Array.make nrows 0;
        art_first;
        pivots = 0;
        degenerate = 0;
        max_pivots;
        stall = 0;
        bland = false;
        bland_ever = false;
        tol;
      }
    in
    let next_art = ref art_first in
    Array.iteri
      (fun i (a, b) ->
        let row = t.rows.(i) in
        let sign = if negated.(i) then -1.0 else 1.0 in
        Array.iteri (fun j v -> row.(j) <- sign *. v) a;
        row.(nvars + i) <- sign;
        row.(ncols) <- sign *. b;
        if negated.(i) then begin
          row.(!next_art) <- 1.0;
          t.basis.(i) <- !next_art;
          incr next_art
        end
        else t.basis.(i) <- nvars + i)
      rows;
    let all_allowed _ = true in
    let no_artificials j = j < t.art_first in
    let phase1 =
      if n_art = 0 then `Feasible
      else begin
        (* Phase 1: minimize the sum of artificials, expressed as
           maximizing reduced costs built from the artificial rows. *)
        for i = 0 to nrows - 1 do
          if t.basis.(i) >= art_first then begin
            let row = t.rows.(i) in
            for j = 0 to ncols do
              t.obj.(j) <- t.obj.(j) +. row.(j)
            done
          end
        done;
        for j = art_first to ncols - 1 do
          t.obj.(j) <- 0.0
        done;
        match
          run_phase t ~allowed:all_allowed ~etol:tol.Tolerance.entering_phase1
        with
        | Phase_unbounded ->
            (* The phase-1 objective is bounded by 0; reaching this means
               the arithmetic went bad, not the instance. *)
            `Abort
              (Simplex.Numerical_error
                 (diagnostics t ~phase1_pivots:t.pivots
                    ~detail:"phase 1 reported unbounded"))
        | Phase_budget detail ->
            `Abort
              (Simplex.Budget_exhausted
                 (diagnostics t ~phase1_pivots:t.pivots ~detail))
        | Phase_numerical detail ->
            `Abort
              (Simplex.Numerical_error
                 (diagnostics t ~phase1_pivots:t.pivots ~detail))
        | Phase_optimal ->
            let residual = ref 0.0 in
            for i = 0 to nrows - 1 do
              if t.basis.(i) >= art_first then
                residual := !residual +. t.rows.(i).(ncols)
            done;
            if !residual > tol.Tolerance.residual then `Infeasible
            else begin
              (* Drive any degenerate artificial out of the basis when a
                 non-artificial pivot exists; a fully zero row is redundant
                 and can safely keep its zero-valued artificial as long as
                 artificial columns are banned from re-entering. *)
              for i = 0 to nrows - 1 do
                if t.basis.(i) >= art_first then begin
                  let found = ref (-1) in
                  (try
                     for j = 0 to art_first - 1 do
                       if Float.abs t.rows.(i).(j) > tol.Tolerance.pivot
                       then begin
                         found := j;
                         raise Exit
                       end
                     done
                   with Exit -> ());
                  if !found >= 0 then pivot t i !found
                end
              done;
              `Feasible
            end
      end
    in
    let phase1_pivots = t.pivots in
    match phase1 with
    | `Abort outcome -> outcome
    | `Infeasible -> Simplex.Infeasible
    | `Feasible -> (
        (* Phase 2: rebuild reduced costs for the real objective under
           the current basis. *)
        Array.fill t.obj 0 (ncols + 1) 0.0;
        t.obj_val <- 0.0;
        Array.blit c 0 t.obj 0 nvars;
        for i = 0 to nrows - 1 do
          let b = t.basis.(i) in
          if b < nvars && Float.abs c.(b) > 0.0 then begin
            let cb = c.(b) in
            let row = t.rows.(i) in
            for j = 0 to ncols do
              t.obj.(j) <- t.obj.(j) -. (cb *. row.(j))
            done;
            t.obj_val <- t.obj_val +. (cb *. row.(ncols))
          end
        done;
        match
          run_phase t ~allowed:no_artificials ~etol:tol.Tolerance.entering_phase2
        with
        | Phase_unbounded -> Simplex.Unbounded
        | Phase_budget detail ->
            Simplex.Budget_exhausted (diagnostics t ~phase1_pivots ~detail)
        | Phase_numerical detail ->
            Simplex.Numerical_error (diagnostics t ~phase1_pivots ~detail)
        | Phase_optimal ->
            let primal = Array.make nvars 0.0 in
            for i = 0 to nrows - 1 do
              if t.basis.(i) < nvars then
                primal.(t.basis.(i)) <- t.rows.(i).(ncols)
            done;
            let dual = Array.init nrows (fun i -> -.t.obj.(nvars + i)) in
            (* Final guard: NaN coefficients fail every comparison in
               the entering rule, so a poisoned tableau can "converge";
               refuse to report such a solution as optimal. *)
            let finite =
              Float.is_finite t.obj_val
              && Array.for_all Float.is_finite primal
              && Array.for_all Float.is_finite dual
            in
            if finite then
              Simplex.Optimal { objective = t.obj_val; primal; dual }
            else
              Simplex.Numerical_error
                (diagnostics t ~phase1_pivots
                   ~detail:"non-finite value in reported solution"))
end

let outcome_tag = function
  | Simplex.Optimal _ -> "optimal"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Budget_exhausted _ -> "budget_exhausted"
  | Simplex.Numerical_error _ -> "numerical_error"

(* Engines may legitimately differ on give-ups (pivot budgets bite at
   different counts), and alternate optima make primal/dual vectors
   non-unique — so the check compares what is mathematically pinned:
   the outcome constructor and the optimal objective, plus strong
   duality of each engine's own certificate. *)
let cross_check ~rows revised dense =
  let check_tol o = 1e-6 *. Float.max 1.0 (Float.abs o) in
  let dual_gap { Simplex.objective; dual; _ } =
    let by = ref 0.0 in
    Array.iteri (fun i (_, b) -> by := !by +. (b *. dual.(i))) rows;
    Float.abs (!by -. objective)
  in
  match (revised, dense) with
  | Simplex.Budget_exhausted _, _
  | _, Simplex.Budget_exhausted _
  | Simplex.Numerical_error _, _
  | _, Simplex.Numerical_error _ ->
      None (* give-ups are path-dependent; no verdict *)
  | Simplex.Unbounded, Simplex.Unbounded
  | Simplex.Infeasible, Simplex.Infeasible ->
      None
  | Simplex.Optimal r, Simplex.Optimal d ->
      if Float.abs (r.objective -. d.objective) > check_tol r.objective then
        Some
          (Printf.sprintf "objectives differ: revised %.12g vs dense %.12g"
             r.objective d.objective)
      else if dual_gap r > 10.0 *. check_tol r.objective then
        Some (Printf.sprintf "revised dual certificate gap %.3g" (dual_gap r))
      else if dual_gap d > 10.0 *. check_tol d.objective then
        Some (Printf.sprintf "dense dual certificate gap %.3g" (dual_gap d))
      else None
  | r, d ->
      Some
        (Printf.sprintf "outcomes differ: revised %s vs dense %s"
           (outcome_tag r) (outcome_tag d))

(* The revised engine's sparse rows as the dense tableau's rows: the
   only place a constraint row is densified. *)
let dense_rows ~nvars rows =
  Array.map
    (fun ({ Sparse.idx; v }, b) ->
      let a = Array.make nvars 0.0 in
      Array.iteri (fun k j -> a.(j) <- v.(k)) idx;
      (a, b))
    rows

let with_check body =
  let mismatches = Atomic.make 0 in
  (* Under injected faults the revised run drew its own fault schedule,
     so a disagreement says nothing about the engines: no verdict. *)
  let check ~c ~rows outcome =
    if not (Qp_fault.enabled ()) then
      let rows = dense_rows ~nvars:(Array.length c) rows in
      match cross_check ~rows outcome (Dense.solve ~c ~rows ()) with
      | None -> ()
      | Some detail ->
          Atomic.incr mismatches;
          Qp_obs.counter "simplex.cross_check_mismatch" 1;
          Qp_obs.event "simplex.cross_check_mismatch"
            ~args:(fun () -> [ ("detail", Qp_obs.Str detail) ])
  in
  let result = Simplex.with_oracle check body in
  (result, Atomic.get mismatches)
