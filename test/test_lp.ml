(* Tests for the simplex solver and the LP builder, including a
   duality-based property test: on random feasible bounded instances the
   reported optimum must satisfy primal feasibility, dual feasibility
   and strong duality — which pins the solver to the true optimum. *)

module Simplex = Qp_lp.Simplex
module Sparse = Qp_lp.Sparse
module Lp = Qp_lp.Lp

(* The tests write rows densely; the revised engine takes sparse rows. *)
let sparse_rows rows = Array.map (fun (a, b) -> (Sparse.of_dense a, b)) rows

(* Solver-level tests run once per engine (see [suite]): the production
   revised simplex and the dense-tableau oracle. Builder tests run on
   the revised engine, the only one [Lp] uses. *)
let revised ?max_pivots ~c ~rows () =
  Simplex.solve ?max_pivots ~c ~rows:(sparse_rows rows) ()

let dense ?max_pivots ~c ~rows () =
  Qp_lp_oracle.Dense.solve ?max_pivots ~c ~rows ()

let engine = ref revised

let solve_xy c rows =
  match !engine ~c ~rows () with
  | Simplex.Optimal s -> s
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Simplex.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Simplex.Budget_exhausted d | Simplex.Numerical_error d ->
      Alcotest.fail ("unexpected solver failure: " ^ d.Simplex.detail)

let checkf = Alcotest.check (Alcotest.float 1e-6)

let test_textbook () =
  (* max 3x + 2y st x + y <= 4, x + 3y <= 6 -> (4, 0), obj 12 *)
  let s = solve_xy [| 3.; 2. |] [| ([| 1.; 1. |], 4.); ([| 1.; 3. |], 6.) |] in
  checkf "objective" 12.0 s.objective;
  checkf "x" 4.0 s.primal.(0);
  checkf "y" 0.0 s.primal.(1)

let test_degenerate_ok () =
  (* Multiple redundant constraints through one vertex. *)
  let s =
    solve_xy [| 1.; 1. |]
      [|
        ([| 1.; 0. |], 1.); ([| 0.; 1. |], 1.); ([| 1.; 1. |], 2.);
        ([| 2.; 2. |], 4.); ([| 1.; 1. |], 2.);
      |]
  in
  checkf "objective" 2.0 s.objective

let test_zero_objective () =
  let s = solve_xy [| 0.; 0. |] [| ([| 1.; 1. |], 4.) |] in
  checkf "objective" 0.0 s.objective

let test_unbounded () =
  match
    !engine ~c:[| 1.; 0. |] ~rows:[| ([| 0.; 1. |], 4.) |] ()
  with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_infeasible () =
  (* x <= -1 with x >= 0 *)
  match
    !engine ~c:[| 1. |] ~rows:[| ([| 1. |], -1.) |] ()
  with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_negative_rhs_feasible () =
  (* -x <= -2 (x >= 2), minimize x via max -x -> x = 2 *)
  let s = solve_xy [| -1. |] [| ([| -1. |], -2.); ([| 1. |], 10.) |] in
  checkf "objective" (-2.0) s.objective;
  checkf "x" 2.0 s.primal.(0)

let test_duals_textbook () =
  let s = solve_xy [| 3.; 2. |] [| ([| 1.; 1. |], 4.); ([| 1.; 3. |], 6.) |] in
  (* only the first constraint binds at (4,0): y = (3, 0) *)
  checkf "dual0" 3.0 s.dual.(0);
  checkf "dual1" 0.0 s.dual.(1)

(* Negative-rhs rows go through the negated-row / artificial-variable
   path in phase 1, with a -1 slack coefficient. Hand-solved duals pin
   the dual extraction on that path: the stored row is the negation of
   the user's, and the -1 slack coefficient must cancel it exactly. *)
let test_duals_negative_rhs () =
  (* max -x - y  s.t.  -x - y <= -2 (x + y >= 2), x <= 5, y <= 5.
     Optimum -2 anywhere on x + y = 2; LP dual: min -2a + 5b + 5c
     s.t. -a + b >= -1, -a + c >= -1, y >= 0  ->  y = (1, 0, 0). *)
  let s =
    solve_xy [| -1.; -1. |]
      [| ([| -1.; -1. |], -2.); ([| 1.; 0. |], 5.); ([| 0.; 1. |], 5.) |]
  in
  checkf "objective" (-2.0) s.objective;
  checkf "dual of the negated row" 1.0 s.dual.(0);
  checkf "dual of x cap" 0.0 s.dual.(1);
  checkf "dual of y cap" 0.0 s.dual.(2);
  (* strong duality on the original data: b . y = objective *)
  checkf "b . y" (-2.0) ((-2.0 *. s.dual.(0)) +. (5.0 *. s.dual.(1)) +. (5.0 *. s.dual.(2)))

let test_duals_pinned_variable () =
  (* x <= 3 and -x <= -3 force x = 3. The dual set is { (1+t, t) };
     check the certificates rather than one vertex. *)
  let s = solve_xy [| 1. |] [| ([| 1. |], 3.); ([| -1. |], -3.) |] in
  checkf "objective" 3.0 s.objective;
  Alcotest.(check bool) "y >= 0" true
    (s.dual.(0) >= -1e-9 && s.dual.(1) >= -1e-9);
  checkf "dual feasibility binds" 1.0 (s.dual.(0) -. s.dual.(1));
  checkf "strong duality" 3.0 ((3.0 *. s.dual.(0)) -. (3.0 *. s.dual.(1)))

let test_empty_rows_bounded_by_nothing () =
  match !engine ~c:[| 0.0 |] ~rows:[||] () with
  | Simplex.Optimal s -> checkf "objective" 0.0 s.objective
  | _ -> Alcotest.fail "expected optimal"

(* Random instance generator guaranteeing feasibility (x = 0) and
   boundedness (every variable with positive objective coefficient
   appears with a positive coefficient in some row). *)
let random_instance rand =
  let nvars = 1 + Random.State.int rand 6 in
  let nrows = 1 + Random.State.int rand 8 in
  let c = Array.init nvars (fun _ -> Float.of_int (Random.State.int rand 9)) in
  let rows =
    Array.init nrows (fun _ ->
        ( Array.init nvars (fun _ -> Float.of_int (Random.State.int rand 5)),
          Float.of_int (1 + Random.State.int rand 50) ))
  in
  (* ensure boundedness *)
  Array.iteri
    (fun j cj ->
      if cj > 0.0 then
        let covered =
          Array.exists (fun (a, _) -> a.(j) > 0.0) rows
        in
        if not covered then (fst rows.(0)).(j) <- 1.0)
    c;
  (c, rows)

(* The three optimality certificates: primal feasibility, dual
   feasibility, strong duality. Together they pin the reported solution
   to the true optimum of max c.x s.t. Ax <= b, x >= 0. *)
let check_certificates c rows = function
  | Simplex.Optimal { Simplex.objective; primal; dual } ->
      (* primal feasibility *)
      Array.iter
        (fun x -> Alcotest.(check bool) "x >= 0" true (x >= -1e-7))
        primal;
      Array.iter
        (fun (a, b) ->
          let lhs = ref 0.0 in
          Array.iteri (fun j aj -> lhs := !lhs +. (aj *. primal.(j))) a;
          Alcotest.(check bool) "Ax <= b" true (!lhs <= b +. 1e-6))
        rows;
      (* dual feasibility: y >= 0 and A^T y >= c *)
      Array.iter
        (fun y -> Alcotest.(check bool) "y >= 0" true (y >= -1e-7))
        dual;
      Array.iteri
        (fun j cj ->
          let col = ref 0.0 in
          Array.iteri
            (fun i (a, _) -> col := !col +. (a.(j) *. dual.(i)))
            rows;
          Alcotest.(check bool) "A'y >= c" true (!col >= cj -. 1e-6))
        c;
      (* strong duality: b . y = objective *)
      let by = ref 0.0 in
      Array.iteri (fun i (_, b) -> by := !by +. (b *. dual.(i))) rows;
      Alcotest.(check bool) "strong duality" true
        (Float.abs (!by -. objective) < 1e-5 *. Float.max 1.0 (Float.abs objective))
  | Simplex.Unbounded -> Alcotest.fail "bounded instance reported unbounded"
  | Simplex.Infeasible -> Alcotest.fail "feasible instance reported infeasible"
  | Simplex.Budget_exhausted d | Simplex.Numerical_error d ->
      Alcotest.fail ("bounded instance hit solver failure: " ^ d.Simplex.detail)

let test_duality_property () =
  let rand = Random.State.make [| 2024 |] in
  for _ = 1 to 300 do
    let c, rows = random_instance rand in
    check_certificates c rows (!engine ~c ~rows ())
  done

(* Mixed-sign generator: rows pass through a known feasible point x0, so
   rhs values can be negative (exercising the negated-row phase-1 path)
   while the instance stays feasible; an all-ones capacity row keeps it
   bounded regardless of coefficient signs. *)
let random_mixed_instance rand =
  let nvars = 1 + Random.State.int rand 5 in
  let nrows = 1 + Random.State.int rand 6 in
  let x0 = Array.init nvars (fun _ -> Float.of_int (Random.State.int rand 4)) in
  let c = Array.init nvars (fun _ -> Float.of_int (Random.State.int rand 9 - 3)) in
  let rows =
    Array.init (nrows + 1) (fun i ->
        if i = nrows then (Array.make nvars 1.0, 100.0)
        else begin
          let a =
            Array.init nvars (fun _ -> Float.of_int (Random.State.int rand 7 - 3))
          in
          let ax = ref 0.0 in
          Array.iteri (fun j aj -> ax := !ax +. (aj *. x0.(j))) a;
          (a, !ax +. Float.of_int (Random.State.int rand 4))
        end)
  in
  (c, rows)

let test_duality_property_mixed_sign () =
  let rand = Random.State.make [| 77 |] in
  for _ = 1 to 300 do
    let c, rows = random_mixed_instance rand in
    check_certificates c rows (!engine ~c ~rows ())
  done

(* --- Lp builder --- *)

let test_lp_minimize () =
  let p = Lp.create ~minimize:true () in
  let x = Lp.add_var p ~obj:1.0 () in
  let y = Lp.add_var p ~obj:1.0 () in
  let _ = Lp.add_ge p [ (1.0, x); (2.0, y) ] 4.0 in
  let _ = Lp.add_ge p [ (3.0, x); (1.0, y) ] 6.0 in
  match Lp.solve p with
  | Ok s ->
      checkf "objective" 2.8 (Lp.objective_value s);
      checkf "x" 1.6 (Lp.value s x);
      checkf "y" 1.2 (Lp.value s y)
  | Error _ -> Alcotest.fail "expected optimal"

let test_lp_eq_constraint () =
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1.0 () in
  let y = Lp.add_var p ~obj:1.0 () in
  let _ = Lp.add_eq p [ (1.0, x); (1.0, y) ] 5.0 in
  let _ = Lp.add_le p [ (1.0, x) ] 2.0 in
  match Lp.solve p with
  | Ok s ->
      checkf "objective" 5.0 (Lp.objective_value s);
      Alcotest.(check bool) "x <= 2" true (Lp.value s x <= 2.0 +. 1e-7)
  | Error _ -> Alcotest.fail "expected optimal"

let test_lp_infeasible () =
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1.0 () in
  let _ = Lp.add_le p [ (1.0, x) ] 1.0 in
  let _ = Lp.add_ge p [ (1.0, x) ] 2.0 in
  match Lp.solve p with
  | Error Lp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_lp_unbounded () =
  let p = Lp.create () in
  let _x = Lp.add_var p ~obj:1.0 () in
  match Lp.solve p with
  | Error Lp.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_lp_repeated_terms () =
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1.0 () in
  (* x + x <= 4 -> x <= 2 *)
  let _ = Lp.add_le p [ (1.0, x); (1.0, x) ] 4.0 in
  match Lp.solve p with
  | Ok s -> checkf "x" 2.0 (Lp.value s x)
  | Error _ -> Alcotest.fail "expected optimal"

let test_lp_dual_sign_ge () =
  let p = Lp.create ~minimize:true () in
  let x = Lp.add_var p ~obj:2.0 () in
  let c1 = Lp.add_ge p [ (1.0, x) ] 3.0 in
  match Lp.solve p with
  | Ok s ->
      checkf "objective" 6.0 (Lp.objective_value s);
      (* shadow price of the >= constraint in a min problem is +2 *)
      checkf "dual" 2.0 (Lp.dual s c1)
  | Error _ -> Alcotest.fail "expected optimal"

let test_lp_counts () =
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1.0 () in
  let _ = Lp.add_le p [ (1.0, x) ] 1.0 in
  Alcotest.(check int) "vars" 1 (Lp.var_count p);
  Alcotest.(check int) "constrs" 1 (Lp.constr_count p)

(* --- the sparse expansion against the dense one it replaced ---------- *)

(* A builder problem as plain data, so the test can hand the same
   problem to [Lp] and to the reference expansion below. *)
type spec_row = {
  sense : [ `Le | `Ge | `Eq ];
  terms : (float * int) list;
  bound : float;
}

type spec = { minimize : bool; objs : float array; rows : spec_row list }

(* The dense expansion [Lp] ran before its rows became sparse: every
   row densified in terms order from 0.0, [>=] rows negated element by
   element, [=] rows split in two. Fed to the revised engine through
   [Sparse.of_dense], and its duals mapped back to the user rows as
   [Lp] does. *)
let reference_solve spec =
  let nvars = Array.length spec.objs in
  let sign = if spec.minimize then -1.0 else 1.0 in
  let c = Array.map (fun o -> sign *. o) spec.objs in
  let dense terms =
    let a = Array.make nvars 0.0 in
    List.iter (fun (coef, v) -> a.(v) <- a.(v) +. coef) terms;
    a
  in
  (* each simplex row with its (user row, dual sign) origin *)
  let rows, origin =
    List.concat
      (List.mapi
         (fun i { sense; terms; bound } ->
           let a = dense terms in
           let neg = ((Array.map (fun x -> -.x) a, -.bound), (i, -1.0)) in
           match sense with
           | `Le -> [ ((a, bound), (i, 1.0)) ]
           | `Ge -> [ neg ]
           | `Eq -> [ ((Array.copy a, bound), (i, 1.0)); neg ])
         spec.rows)
    |> List.split
  in
  let rows = Array.of_list rows and origin = Array.of_list origin in
  let sparse = sparse_rows rows in
  let outcome = Simplex.solve ~c ~rows:sparse () in
  let solution =
    match outcome with
    | Simplex.Optimal { objective; primal; dual } ->
        let row_dual = Array.make (List.length spec.rows) 0.0 in
        Array.iteri
          (fun k (i, sgn) ->
            row_dual.(i) <- row_dual.(i) +. (sgn *. sign *. dual.(k)))
          origin;
        Ok (sign *. objective, primal, row_dual)
    | Simplex.Infeasible -> Error "infeasible"
    | Simplex.Unbounded -> Error "unbounded"
    | Simplex.Budget_exhausted _ -> Error "budget_exhausted"
    | Simplex.Numerical_error _ -> Error "numerical_error"
  in
  (solution, sparse, Qp_lp_oracle.Dense.solve ~c ~rows (), sign)

(* [Lp.solve] of the spec, with the sparse rows it handed the engine
   (read through the oracle seam). *)
let lp_solve spec =
  let p = Lp.create ~minimize:spec.minimize () in
  let vars = Array.map (fun obj -> Lp.add_var p ~obj ()) spec.objs in
  let constrs =
    List.map
      (fun { sense; terms; bound } ->
        let terms = List.map (fun (coef, v) -> (coef, vars.(v))) terms in
        let add =
          match sense with `Le -> Lp.add_le | `Ge -> Lp.add_ge | `Eq -> Lp.add_eq
        in
        add p terms bound)
      spec.rows
  in
  let seen = ref [||] in
  let result =
    Simplex.with_oracle
      (fun ~c:_ ~rows _ -> seen := rows)
      (fun () -> Lp.solve p)
  in
  ( (match result with
    | Ok sol ->
        Ok
          ( Lp.objective_value sol,
            Array.map (Lp.value sol) vars,
            Array.of_list (List.map (Lp.dual sol) constrs) )
    | Error e -> Error (Lp.error_tag e)),
    !seen )

(* Coefficients mix repeats of a variable, cancelling (c, -c) pairs
   around other terms, [-0.0] and [0.0] entries, and fractions whose
   sums round; bounds run negative, so [>=] and [=] rows need phase 1.
   Three problems in four are planted: each bound is set from the row's
   value at a point [x >= 0], so the problem is feasible and the
   comparison reaches the primal and dual vectors. *)
let gen_spec =
  let open QCheck2.Gen in
  let coef =
    oneofl [ 1.0; 2.0; 3.0; -1.0; -2.0; 0.5; -0.5; 0.1; 0.3; -0.0; 0.0 ]
  in
  let* nvars = int_range 1 5 in
  let* point = array_size (return nvars) (map Float.of_int (int_range 0 3)) in
  let* planted = frequencyl [ (3, true); (1, false) ] in
  let term = pair coef (int_range 0 (nvars - 1)) in
  let row =
    let* sense = frequencyl [ (3, `Le); (2, `Ge); (1, `Eq) ] in
    let* before = list_size (int_range 0 4) term in
    let* cancel = list_size (int_range 0 2) term in
    let* after = list_size (int_range 0 3) term in
    let* slack = map (fun k -> Float.of_int k /. 2.0) (int_range 0 4) in
    let+ free = map (fun k -> Float.of_int k /. 2.0) (int_range (-8) 20) in
    let terms =
      before @ cancel @ after
      @ List.map (fun (c, v) -> (-.c, v)) (List.rev cancel)
    in
    let at_point =
      List.fold_left (fun acc (c, v) -> acc +. (c *. point.(v))) 0.0 terms
    in
    let bound =
      if not planted then free
      else
        match sense with
        | `Le -> at_point +. slack
        | `Ge -> at_point -. slack
        | `Eq -> at_point
    in
    { sense; terms; bound }
  in
  let* minimize = bool in
  let* objs =
    array_size (return nvars) (oneofl [ -1.0; 0.0; 1.0; 2.0; 0.5; -0.0 ])
  in
  let* rows = list_size (int_range 1 6) row in
  (* a capacity row keeps most maximizations bounded *)
  let+ cap = bool in
  let cap_row =
    { sense = `Le; terms = List.init nvars (fun v -> (1.0, v)); bound = 20.0 }
  in
  let rows = if cap then rows @ [ cap_row ] else rows in
  { minimize; objs; rows }

let print_spec { minimize; objs; rows } =
  let f = Printf.sprintf "%h" in
  Printf.sprintf "%s [%s]\n%s"
    (if minimize then "min" else "max")
    (String.concat "; " (Array.to_list (Array.map f objs)))
    (String.concat "\n"
       (List.map
          (fun { sense; terms; bound } ->
            Printf.sprintf "%s %s %s"
              (String.concat " + "
                 (List.map
                    (fun (c, v) -> Printf.sprintf "%s*x%d" (f c) v)
                    terms))
              (match sense with `Le -> "<=" | `Ge -> ">=" | `Eq -> "=")
              (f bound))
          rows))

let prop_sparse_expansion =
  QCheck2.Test.make
    ~name:"builder: sparse expansion = dense reference, bit for bit"
    ~count:600 ~print:print_spec gen_spec (fun spec ->
      let bits = Int64.bits_of_float in
      let same a b =
        Array.length a = Array.length b
        && Array.for_all2 (fun x y -> bits x = bits y) a b
      in
      let reference, reference_rows, dense, sign = reference_solve spec in
      let solution, rows = lp_solve spec in
      let same_row ((a : Sparse.col), b) ((a' : Sparse.col), b') =
        a.idx = a'.idx && same a.v a'.v && bits b = bits b'
      in
      if
        not
          (Array.length rows = Array.length reference_rows
          && Array.for_all2 same_row rows reference_rows)
      then QCheck2.Test.fail_report "sparse rows differ from the reference's";
      (match (solution, reference) with
      | Ok (o, x, y), Ok (o', x', y') ->
          if bits o <> bits o' then
            QCheck2.Test.fail_reportf "objective %h vs reference %h" o o';
          if not (same x x') then
            QCheck2.Test.fail_report "primal differs from the reference";
          if not (same y y') then
            QCheck2.Test.fail_report "row_dual differs from the reference"
      | Error e, Error e' when e = e' -> ()
      | (Ok _ | Error _), _ ->
          QCheck2.Test.fail_report "outcome differs from the reference");
      (* and the dense tableau agrees within tolerance *)
      (match (reference, dense) with
      | Ok (o, _, _), Simplex.Optimal d ->
          let od = sign *. d.Simplex.objective in
          if Float.abs (o -. od) > 1e-6 *. Float.max 1.0 (Float.abs od) then
            QCheck2.Test.fail_reportf "objective %.12g vs dense %.12g" o od
      | Error "infeasible", Simplex.Infeasible
      | Error "unbounded", Simplex.Unbounded
      | _, (Simplex.Budget_exhausted _ | Simplex.Numerical_error _)
      | Error ("budget_exhausted" | "numerical_error"), _ -> ()
      | _ -> QCheck2.Test.fail_report "outcome differs from the dense tableau");
      true)

let test_pivot_budget () =
  (* max x + y with x <= 1, y <= 1 needs one pivot per variable. *)
  let c = [| 1.0; 1.0 |] in
  let rows = [| ([| 1.0; 0.0 |], 1.0); ([| 0.0; 1.0 |], 1.0) |] in
  match !engine ~max_pivots:1 ~c ~rows () with
  | Simplex.Budget_exhausted d ->
      Alcotest.(check int) "stopped at the budget" 1 d.Simplex.pivots
  | _ -> Alcotest.fail "expected Budget_exhausted"

(* --- sparse LU reinversion (Basis.factor) ------------------------------ *)

module Basis = Qp_lp.Basis

(* A random nonsingular basis shaped like the pricing LPs': unit-like
   columns (slacks, artificials) on most rows, plus a dense bump over
   the rest, diagonally dominant there so it is nonsingular; bump
   columns also reach into the unit rows, and rows and columns come in
   random order. Returned as dense columns. *)
let shuffle rand a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let random_basis rand =
  let m = 2 + Random.State.int rand 59 in
  let perm = shuffle rand (Array.init m Fun.id) in
  let nb = 1 + Random.State.int rand (min m 12) in
  let bump_rows = Array.sub perm 0 nb in
  let unit_rows = Array.sub perm nb (m - nb) in
  let cols =
    Array.append
      (Array.map
         (fun r ->
           let d = Array.make m 0.0 in
           d.(r) <-
             (if Random.State.bool rand then 1.0
              else -.(0.5 +. Random.State.float rand 2.0));
           d)
         unit_rows)
      (Array.mapi
         (fun k r ->
           let d = Array.make m 0.0 in
           Array.iter
             (fun r' ->
               if Random.State.int rand 3 > 0 then
                 d.(r') <- Random.State.float rand 2.0 -. 1.0)
             bump_rows;
           d.(r) <- Float.of_int (nb + 1) *. if k mod 2 = 0 then 1.0 else -1.0;
           Array.iter
             (fun r' ->
               if Random.State.int rand 4 = 0 then
                 d.(r') <- Random.State.float rand 2.0 -. 1.0)
             unit_rows;
           d)
         bump_rows)
  in
  shuffle rand cols

(* Solve z^T A = y for square dense A given by columns: Gaussian
   elimination with partial pivoting on A^T. *)
let dense_left_solve (cols : float array array) (y : float array) =
  let m = Array.length y in
  let a = Array.init m (fun p -> Array.copy cols.(p)) in
  let b = Array.copy y in
  for k = 0 to m - 1 do
    let piv = ref k in
    for i = k + 1 to m - 1 do
      if Float.abs a.(i).(k) > Float.abs a.(!piv).(k) then piv := i
    done;
    let t = a.(k) in
    a.(k) <- a.(!piv);
    a.(!piv) <- t;
    let t = b.(k) in
    b.(k) <- b.(!piv);
    b.(!piv) <- t;
    for i = k + 1 to m - 1 do
      let f = a.(i).(k) /. a.(k).(k) in
      if f <> 0.0 then begin
        for j = k to m - 1 do
          a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
        done;
        b.(i) <- b.(i) -. (f *. b.(k))
      end
    done
  done;
  let z = Array.make m 0.0 in
  for k = m - 1 downto 0 do
    let s = ref b.(k) in
    for j = k + 1 to m - 1 do
      s := !s -. (a.(k).(j) *. z.(j))
    done;
    z.(k) <- !s /. a.(k).(k)
  done;
  z

let close ~what expected got =
  let scale =
    Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 1.0 expected
  in
  Array.iteri
    (fun i e ->
      if Float.abs (e -. got.(i)) > 1e-9 *. scale then
        Alcotest.failf "%s: entry %d is %.17g, expected %.17g" what i got.(i) e)
    expected

let test_factor_random_bases () =
  for seed = 1 to 200 do
    let rand = Random.State.make [| 9241; seed |] in
    let dense = random_basis rand in
    let m = Array.length dense in
    let bas = Basis.create m in
    match Basis.factor bas ~tol:1e-9 (Array.map Sparse.of_dense dense) with
    | None -> Alcotest.failf "basis %d: nonsingular basis reported singular" seed
    | Some slot ->
        let seen = Array.make m false in
        Array.iter (fun r -> seen.(r) <- true) slot;
        Alcotest.(check bool)
          (Printf.sprintf "basis %d: slots are a permutation" seed)
          true
          (Array.for_all Fun.id seen);
        Array.iteri
          (fun k col ->
            let w = Array.copy col in
            Basis.ftran bas w;
            let unit = Array.make m 0.0 in
            unit.(slot.(k)) <- 1.0;
            close ~what:(Printf.sprintf "basis %d: ftran column %d" seed k) unit w)
          dense;
        (* btran: y B^-1 over the basis in slot order, i.e. z with
           z . column k = y.(slot k) for every k *)
        let y = Array.init m (fun _ -> Random.State.float rand 2.0 -. 1.0) in
        let z = Array.copy y in
        Basis.btran bas z;
        let by_slot = Array.make m [||] in
        Array.iteri (fun k col -> by_slot.(slot.(k)) <- col) dense;
        close
          ~what:(Printf.sprintf "basis %d: btran vs dense solve" seed)
          (dense_left_solve by_slot y) z
  done

let test_factor_singular () =
  let col entries =
    let d = Array.make 4 0.0 in
    List.iter (fun (i, x) -> d.(i) <- x) entries;
    Sparse.of_dense d
  in
  let good =
    [| col [ (0, 1.0) ]; col [ (0, 2.0); (1, 3.0) ]; col [ (2, -1.0) ];
       col [ (1, 1.0); (3, 4.0) ] |]
  in
  let bas = Basis.create 4 in
  (match Basis.factor bas ~tol:1e-9 good with
  | Some _ -> ()
  | None -> Alcotest.fail "nonsingular basis reported singular");
  let etas = Basis.eta_count bas and fill = Basis.fill bas in
  let probe () =
    let w = [| 1.0; 2.0; 3.0; 4.0 |] in
    Basis.ftran bas w;
    w
  in
  let before = probe () in
  List.iter
    (fun (what, cols) ->
      (match Basis.factor bas ~tol:1e-9 cols with
      | None -> ()
      | Some _ -> Alcotest.failf "%s: singular basis factored" what);
      Alcotest.(check int) (what ^ ": eta file kept") etas (Basis.eta_count bas);
      Alcotest.(check int) (what ^ ": fill kept") fill (Basis.fill bas);
      Alcotest.(check bool)
        (what ^ ": old factorization still applies, no NaN")
        true
        (probe () = before))
    [
      ("zero column", [| good.(0); good.(1); Sparse.empty; good.(3) |]);
      (* the rest are structurally nonsingular: only the numbers say no *)
      ("duplicated column", [| good.(0); good.(3); good.(2); good.(3) |]);
      ( "dependent column",
        [| good.(0); col [ (0, 3.0); (1, 1.0); (3, 4.0) ]; good.(2); good.(3) |] );
      ( "dependent up to roundoff",
        [| good.(0);
           col [ (0, 0.1); (1, 0.7); (3, 0.7 *. 4.0) ];
           good.(2); good.(3) |] );
    ]

(* --- flat kernels vs the per-record references ------------------------ *)

(* The eta file, the pricing loop and the dual pivot row as they were
   before the kernels moved to flat storage: one record per eta, an
   [allowed] closure and a [Sparse.dot] per column. The flat kernels
   must reproduce them bit for bit, on every entry. *)
module Ref = struct
  type eta = { r : int; pr : float; idx : int array; v : float array }
  type t = { mutable etas : eta array; mutable len : int }

  let dummy_eta = { r = 0; pr = 1.0; idx = [||]; v = [||] }
  let create () = { etas = Array.make 16 dummy_eta; len = 0 }

  let append t e =
    if t.len = Array.length t.etas then begin
      let bigger = Array.make (2 * t.len) dummy_eta in
      Array.blit t.etas 0 bigger 0 t.len;
      t.etas <- bigger
    end;
    t.etas.(t.len) <- e;
    t.len <- t.len + 1

  let push t ~r (d : float array) =
    let n = ref 0 in
    Array.iteri (fun i x -> if i <> r && x <> 0.0 then incr n) d;
    let pr = d.(r) in
    if !n = 0 && pr = 1.0 then ()
    else begin
      let idx = Array.make !n 0 and v = Array.make !n 0.0 in
      let k = ref 0 in
      Array.iteri
        (fun i x ->
          if i <> r && x <> 0.0 then begin
            idx.(!k) <- i;
            v.(!k) <- x;
            incr k
          end)
        d;
      append t { r; pr; idx; v }
    end

  let ftran t (w : float array) =
    for k = 0 to t.len - 1 do
      let e = t.etas.(k) in
      let wr = w.(e.r) in
      if wr <> 0.0 then begin
        let wr = wr /. e.pr in
        w.(e.r) <- wr;
        for j = 0 to Array.length e.idx - 1 do
          w.(e.idx.(j)) <- w.(e.idx.(j)) -. (e.v.(j) *. wr)
        done
      end
    done

  let btran t (y : float array) =
    for k = t.len - 1 downto 0 do
      let e = t.etas.(k) in
      let s = ref y.(e.r) in
      for j = 0 to Array.length e.idx - 1 do
        s := !s -. (y.(e.idx.(j)) *. e.v.(j))
      done;
      y.(e.r) <- !s /. e.pr
    done

  (* the file [bas] holds, one record per eta *)
  let of_basis bas =
    let t = create () in
    for k = 0 to Basis.eta_count bas - 1 do
      let r, pr, { Sparse.idx; v } = Basis.eta bas k in
      append t { r; pr; idx; v }
    done;
    t

  (* Dantzig / Bland pricing over the columns [allowed] admits *)
  let entering ~cols ~cost ~y ~in_basis ~allowed ~etol ~bland =
    let reduced_cost j = cost.(j) -. Sparse.dot cols.(j) y in
    let ncols = Array.length cols in
    if bland then begin
      let found = ref (-1) and rc = ref 0.0 in
      (try
         for j = 0 to ncols - 1 do
           if (not in_basis.(j)) && allowed j then begin
             let r = reduced_cost j in
             if r > etol then begin
               found := j;
               rc := r;
               raise Exit
             end
           end
         done
       with Exit -> ());
      (!found, !rc)
    end
    else begin
      let best = ref (-1) and best_val = ref etol in
      for j = 0 to ncols - 1 do
        if (not in_basis.(j)) && allowed j then begin
          let r = reduced_cost j in
          if r > !best_val then begin
            best := j;
            best_val := r
          end
        end
      done;
      (!best, !best_val)
    end

  (* the dual phase's pivot row, one column at a time *)
  let dual_row ~cols ~ncols rho = Array.init ncols (fun j -> Sparse.dot cols.(j) rho)
end

let bits = Int64.bits_of_float

let same_bits ~what (expected : float array) (got : float array) =
  Array.iteri
    (fun i e ->
      if bits e <> bits got.(i) then
        Alcotest.failf "%s: entry %d is %h, reference %h" what i got.(i) e)
    expected

(* A float of random sign and magnitude — or an exact +-0 one time in
   [zeros] (never when [zeros = 0]). *)
let random_float ?(zeros = 4) rand =
  match zeros > 0 && Random.State.int rand zeros = 0 with
  | true -> if Random.State.bool rand then 0.0 else -0.0
  | false ->
      let x = Random.State.float rand 1.0 *. (10.0 ** Float.of_int (Random.State.int rand 7 - 3)) in
      if Random.State.bool rand then x else -.x

(* A dense FTRAN'd column for a pivot on row [r]: sparse, with +-0
   entries, a nonzero pivot, and now and then the identity (skipped). *)
let random_eta_column rand m r =
  let d = Array.make m 0.0 in
  if Random.State.int rand 8 = 0 then d.(r) <- 1.0
  else begin
    Array.iteri
      (fun i _ -> if Random.State.int rand 3 = 0 then d.(i) <- random_float rand)
      d;
    d.(r) <- (if Random.State.bool rand then 1.0 else 0.5 +. Random.State.float rand 3.0)
  end;
  d

let compare_files ~what rand ref_file bas m =
  Alcotest.(check int) (what ^ ": eta count") ref_file.Ref.len (Basis.eta_count bas);
  for k = 0 to ref_file.Ref.len - 1 do
    let e = ref_file.Ref.etas.(k) in
    let r, pr, c = Basis.eta bas k in
    if r <> e.Ref.r || bits pr <> bits e.Ref.pr || c.Sparse.idx <> e.Ref.idx then
      Alcotest.failf "%s: eta %d differs" what k;
    same_bits ~what:(Printf.sprintf "%s: eta %d values" what k) e.Ref.v c.Sparse.v
  done;
  for probe = 1 to 4 do
    let w = Array.init m (fun _ -> random_float rand) in
    let w_ref = Array.copy w in
    Basis.ftran bas w;
    Ref.ftran ref_file w_ref;
    same_bits ~what:(Printf.sprintf "%s: ftran %d" what probe) w_ref w;
    let y = Array.init m (fun _ -> random_float rand) in
    let y_ref = Array.copy y in
    Basis.btran bas y;
    Ref.btran ref_file y_ref;
    same_bits ~what:(Printf.sprintf "%s: btran %d" what probe) y_ref y
  done

let test_flat_eta_file_bits () =
  (* product-form files, pushed from random columns *)
  for seed = 1 to 150 do
    let rand = Random.State.make [| 5113; seed |] in
    let m = 1 + Random.State.int rand 40 in
    let bas = Basis.create m and ref_file = Ref.create () in
    for _ = 1 to Random.State.int rand 60 do
      let r = Random.State.int rand m in
      let d = random_eta_column rand m r in
      Basis.push bas ~r d;
      Ref.push ref_file ~r d
    done;
    compare_files ~what:(Printf.sprintf "pushed file %d" seed) rand ref_file bas m
  done;
  (* files written by [factor] on random sparse bases, then pivots *)
  for seed = 1 to 100 do
    let rand = Random.State.make [| 9241; seed |] in
    let dense = random_basis rand in
    let m = Array.length dense in
    let bas = Basis.create m in
    match Basis.factor bas ~tol:1e-9 (Array.map Sparse.of_dense dense) with
    | None -> Alcotest.failf "basis %d: nonsingular basis reported singular" seed
    | Some _ ->
        let ref_file = Ref.of_basis bas in
        for _ = 1 to Random.State.int rand 30 do
          let r = Random.State.int rand m in
          let d = random_eta_column rand m r in
          Basis.push bas ~r d;
          Ref.push ref_file ~r d
        done;
        compare_files ~what:(Printf.sprintf "factored file %d" seed) rand ref_file bas m
  done

(* Random sparse columns over [nrows] rows: values of mixed sign and
   magnitude, so that summing a column in another order changes its
   bits. *)
let random_cols rand ~nrows ~ncols =
  Array.init ncols (fun _ ->
      Sparse.of_dense
        (Array.init nrows (fun _ ->
             if Random.State.int rand 3 = 0 then random_float ~zeros:0 rand
             else 0.0)))

let test_pricing_and_pivot_row_bits () =
  for seed = 1 to 300 do
    let rand = Random.State.make [| 7127; seed |] in
    let nrows = 1 + Random.State.int rand 30 in
    let ncols = 1 + Random.State.int rand 80 in
    let cols = random_cols rand ~nrows ~ncols in
    let what = Printf.sprintf "instance %d" seed in
    (* pricing, both rules, over a random column prefix *)
    let cost =
      Array.init ncols (fun _ ->
          if Random.State.bool rand then 0.0 else random_float ~zeros:0 rand)
    in
    let y = Array.init nrows (fun _ -> random_float rand) in
    let in_basis = Array.init ncols (fun _ -> Random.State.int rand 4 = 0) in
    let limit = Random.State.int rand (ncols + 1) in
    let etol = 1e-9 in
    List.iter
      (fun bland ->
        let q_ref, rc_ref =
          Ref.entering ~cols ~cost ~y ~in_basis ~allowed:(fun j -> j < limit) ~etol
            ~bland
        in
        let rc = [| nan |] in
        let q =
          Sparse.price cols ~cost ~y ~basic:in_basis ~limit ~etol ~first:bland rc
        in
        Alcotest.(check int) (what ^ ": entering column") q_ref q;
        if q >= 0 && bits rc_ref <> bits rc.(0) then
          Alcotest.failf "%s: reduced cost %h, reference %h" what rc.(0) rc_ref)
      [ false; true ];
    (* the pivot row, over a rho with +-0 entries *)
    let rho = Array.init nrows (fun _ -> random_float ~zeros:2 rand) in
    let width = Random.State.int rand (ncols + 1) in
    let alpha = Array.make width nan in
    Sparse.row_combination (Sparse.rows_of_cols ~nrows cols ~ncols:width) rho alpha;
    same_bits ~what:(what ^ ": pivot row")
      (Ref.dual_row ~cols ~ncols:width rho)
      alpha
  done

(* Pivot counts and revenue bits of LPIP and CIP on the Tiny SSB and
   skewed instances, recorded before the kernels moved to flat storage:
   the same pivots must find the same vertices. One domain, so the
   sweeps chunk and warm-start identically on every run. *)
let test_pivot_and_revenue_pins () =
  let module W = Qp_experiments.Workload_instances in
  let module Core = Qp_core in
  let lpip_options =
    { Core.Lpip.max_candidates = None; max_pivots = 200_000; jobs = Some 1 }
  in
  let cip_options =
    { Core.Cip.epsilon = 0.5; max_pivots = 200_000; time_budget = None;
      jobs = Some 1 }
  in
  let run h solve =
    Qp_obs.set_enabled true;
    Qp_obs.reset ();
    Fun.protect
      ~finally:(fun () ->
        Qp_obs.set_enabled false;
        Qp_obs.reset ())
      (fun () ->
        let p = solve h in
        let pivots =
          Option.value ~default:0
            (List.assoc_opt "simplex.pivots" (Qp_obs.counters ()))
        in
        (bits (Core.Pricing.revenue p h), pivots))
  in
  List.iter
    (fun (name, inst, pins) ->
      let h =
        Qp_workloads.Valuations.apply ~rng:(Qp_util.Rng.create 42)
          (Qp_workloads.Valuations.Uniform_val 100.0)
          (Lazy.force inst).W.hypergraph
      in
      let got =
        [
          ("lpip", run h (Core.Lpip.solve ~options:lpip_options));
          ("cip", run h (Core.Cip.solve ~options:cip_options));
        ]
      in
      List.iter2
        (fun (algo, (rev, piv)) (_, (rev', piv')) ->
          Alcotest.(check int64) (name ^ " " ^ algo ^ " revenue bits") rev rev';
          Alcotest.(check int) (name ^ " " ^ algo ^ " pivots") piv piv')
        pins got)
    [
      ( "ssb",
        lazy (W.ssb ~scale:W.Tiny ~seed:42 ()),
        [ ("lpip", (4661148521694724515L, 4133)); ("cip", (4658000418528689113L, 1817)) ] );
      ( "skewed",
        lazy (W.skewed ~scale:W.Tiny ~seed:42 ()),
        [ ("lpip", (4657218567140839030L, 608)); ("cip", (4660991282625037785L, 852)) ] );
    ]

(* Allocation guard. The welfare dual CIP solves (one row per edge,
   a price per membership class plus a slack per edge) over a Tiny
   instance, swept warm over the capacity grid and again cold; then
   LPIP's must-sell family over nested prefixes, whose rhs moves drive
   the dual phase. The kernels allocate nothing; what a pivot still
   allocates is bounded by a small constant, and each resolve's own
   result arrays are amortized over its pivots. The replay reads about
   140 minor words per pivot: 58 in a release build, plus the floats a
   dev build (no cross-module inlining) boxes to pass to Tolerance's
   ratio tests. Per-record etas and per-column closures read 3,246, and
   a closure-based push alone 580. One domain, so the count is
   deterministic. *)
let alloc_instance =
  lazy
    (let inst =
       Qp_experiments.Workload_instances.skewed
         ~scale:Qp_experiments.Workload_instances.Tiny ~support:120 ~seed:5 ()
     in
     Qp_workloads.Valuations.apply ~rng:(Qp_util.Rng.create 8)
       (Qp_workloads.Valuations.Uniform_val 100.0)
       inst.Qp_experiments.Workload_instances.hypergraph)

let welfare_dual h =
  let module H = Qp_core.Hypergraph in
  let classes = H.classes h in
  let p = Lp.create ~minimize:true () in
  let y =
    Array.init classes.H.n_classes (fun c ->
        if Array.length classes.H.class_edges.(c) = 0 then None
        else Some (Lp.add_var p ~obj:1.0 ()))
  in
  Array.iter
    (fun (e : H.edge) ->
      let z = Lp.add_var p ~obj:1.0 () in
      let terms =
        (1.0, z)
        :: (Array.to_list classes.H.edge_classes.(e.id)
           |> List.filter_map (fun c -> Option.map (fun v -> (1.0, v)) y.(c)))
      in
      ignore (Lp.add_ge p terms e.valuation))
    (H.edges h);
  let y_idx =
    Array.of_list (List.filter_map (Option.map Lp.var_index) (Array.to_list y))
  in
  (p, y_idx)

(* The three sweeps over freshly prepared families: [prepare] builds
   them, the closure it returns runs every resolve. *)
let alloc_sweeps h () =
  let p, y_idx = welfare_dual h in
  let grid =
    Qp_core.Cip.capacity_grid ~epsilon:0.25
      ~max_degree:(Qp_core.Hypergraph.max_degree h)
  in
  let objs =
    List.map
      (fun k ->
        let obj = Array.make (Lp.var_count p) 1.0 in
        Array.iter (fun i -> obj.(i) <- k) y_idx;
        obj)
      grid
  in
  let warm = Lp.Batch.prepare p and cold = Lp.Batch.prepare p in
  let fam = Qp_core.Class_lp.prepare_family h in
  let by_value =
    Array.to_list (Qp_core.Hypergraph.edges h)
    |> List.sort (fun (a : Qp_core.Hypergraph.edge) b ->
           Float.compare b.valuation a.valuation)
    |> List.map (fun (e : Qp_core.Hypergraph.edge) -> e.id)
  in
  let prefixes =
    List.filteri (fun i _ -> i mod 7 = 0) by_value
    |> List.mapi (fun i _ -> List.filteri (fun k _ -> k <= 7 * i) by_value)
  in
  fun () ->
    List.iter (fun obj -> ignore (Lp.Batch.resolve ~obj warm)) objs;
    Fun.protect
      ~finally:(fun () -> Simplex.set_warm_starts true)
      (fun () ->
        Simplex.set_warm_starts false;
        List.iter (fun obj -> ignore (Lp.Batch.resolve ~obj cold)) objs);
    List.iter
      (fun edge_ids -> ignore (Qp_core.Class_lp.family_must_sell fam ~edge_ids))
      prefixes

let test_pivot_allocation () =
  let h = Lazy.force alloc_instance in
  (* count the pivots (and resolves) with tracing on ... *)
  let sweeps = alloc_sweeps h () in
  Qp_obs.set_enabled true;
  Qp_obs.reset ();
  let pivots, solves =
    Fun.protect
      ~finally:(fun () ->
        Qp_obs.set_enabled false;
        Qp_obs.reset ())
      (fun () ->
        sweeps ();
        let count k = Option.value ~default:0 (List.assoc_opt k (Qp_obs.counters ())) in
        (count "simplex.pivots", count "simplex.solves"))
  in
  (* ... then replay them untraced on fresh families and count words *)
  let sweeps = alloc_sweeps h () in
  let w0 = Gc.minor_words () in
  sweeps ();
  let words = Gc.minor_words () -. w0 in
  let per_pivot = words /. Float.of_int pivots in
  Printf.printf "%d pivots over %d solves: %.0f minor words, %.1f per pivot\n"
    pivots solves words per_pivot;
  Alcotest.(check bool) "enough pivots to measure" true (pivots >= 1000);
  if per_pivot > 192.0 then
    Alcotest.failf "%.1f minor words per pivot (bound 192)" per_pivot;
  (* push: nothing at all once the pool has grown *)
  let m = 300 in
  let bas = Basis.create m in
  let rand = Random.State.make [| 31 |] in
  let cols = Array.init 64 (fun k -> random_eta_column rand m (k mod m)) in
  Array.iteri (fun k d -> Basis.push bas ~r:(k mod m) d) cols;
  Basis.reset bas;
  let idle0 = Gc.minor_words () in
  let idle = Gc.minor_words () -. idle0 in
  let w0 = Gc.minor_words () in
  for k = 0 to Array.length cols - 1 do
    Basis.push bas ~r:(k mod m) cols.(k)
  done;
  let pushed = Gc.minor_words () -. w0 -. idle in
  Alcotest.(check (float 0.0)) "words allocated by 64 pushes into a grown pool" 0.0
    pushed

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  (* Every solver-level test runs once per engine; the [engine] ref is
     set just before the test body so helper functions pick it up. *)
  let per_engine =
    List.concat_map
      (fun (engine_name, solve) ->
        let te name f =
          t
            (Printf.sprintf "%s [%s]" name engine_name)
            (fun () ->
              engine := solve;
              f ())
        in
        [
          te "textbook optimum" test_textbook;
          te "degenerate constraints" test_degenerate_ok;
          te "zero objective" test_zero_objective;
          te "unbounded" test_unbounded;
          te "infeasible" test_infeasible;
          te "negative rhs feasible (phase 1)" test_negative_rhs_feasible;
          te "duals on textbook instance" test_duals_textbook;
          te "duals on negative-rhs rows" test_duals_negative_rhs;
          te "duals on a pinned variable" test_duals_pinned_variable;
          te "no rows" test_empty_rows_bounded_by_nothing;
          te "duality property on 300 random LPs" test_duality_property;
          te "duality property, mixed-sign rhs" test_duality_property_mixed_sign;
          te "pivot budget enforced" test_pivot_budget;
        ])
      [ ("revised", revised); ("dense", dense) ]
  in
  ( "lp",
    per_engine
    @ [
        t "builder: minimize with >=" test_lp_minimize;
        t "builder: equality constraint" test_lp_eq_constraint;
        t "builder: infeasible" test_lp_infeasible;
        t "builder: unbounded" test_lp_unbounded;
        t "builder: repeated terms summed" test_lp_repeated_terms;
        t "builder: dual sign for >= in min" test_lp_dual_sign_ge;
        t "builder: counts" test_lp_counts;
        t "reinversion: random sparse bases, ftran/btran exact"
          test_factor_random_bases;
        t "reinversion: singular bases reported, file kept"
          test_factor_singular;
        t "kernels: flat eta file = per-record etas, bit for bit"
          test_flat_eta_file_bits;
        t "kernels: pricing and pivot row = Sparse.dot, bit for bit"
          test_pricing_and_pivot_row_bits;
        t "pins: pivots and LPIP/CIP revenue bits on Tiny ssb, skewed"
          test_pivot_and_revenue_pins;
        t "allocation: a pivot allocates O(1) words, push none"
          test_pivot_allocation;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2511 |])
          prop_sparse_expansion;
      ] )
