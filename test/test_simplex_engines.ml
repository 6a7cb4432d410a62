(* Engine-agreement tests for the simplex: the dense tableau
   (Qp_lp_oracle.Dense) is the reference oracle, the revised
   (sparse-column, eta-file) engine is production — this suite pins
   them to each other. Constructors must match on every instance; on
   optimal instances the objectives must agree and each engine's own dual certificate must satisfy strong
   duality (primal/dual vectors are NOT compared entry-wise: alternate
   optima make them non-unique). *)

module Simplex = Qp_lp.Simplex
module Lp = Qp_lp.Lp
module Oracle = Qp_lp_oracle

(* The tests write rows densely; the revised engine takes sparse rows. *)
let sparse_rows rows =
  Array.map (fun (a, b) -> (Qp_lp.Sparse.of_dense a, b)) rows

let checkf = Alcotest.check (Alcotest.float 1e-6)

let outcome_tag = function
  | Simplex.Optimal _ -> "optimal"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Budget_exhausted _ -> "budget_exhausted"
  | Simplex.Numerical_error _ -> "numerical_error"

(* Primal feasibility + dual feasibility + strong duality for one
   engine's reported optimum, with scale-relative slack. *)
let check_certificates ~label c rows = function
  | Simplex.Optimal { Simplex.objective; primal; dual } ->
      let scale =
        Array.fold_left
          (fun acc (_, b) -> Float.max acc (Float.abs b))
          (Float.max 1.0 (Float.abs objective))
          rows
      in
      let tol = 1e-6 *. scale in
      Array.iter
        (fun x ->
          Alcotest.(check bool) (label ^ ": x >= 0") true (x >= -.tol))
        primal;
      Array.iter
        (fun (a, b) ->
          let lhs = ref 0.0 in
          Array.iteri (fun j aj -> lhs := !lhs +. (aj *. primal.(j))) a;
          Alcotest.(check bool) (label ^ ": Ax <= b") true (!lhs <= b +. tol))
        rows;
      Array.iter
        (fun y ->
          Alcotest.(check bool) (label ^ ": y >= 0") true (y >= -.tol))
        dual;
      Array.iteri
        (fun j cj ->
          let col = ref 0.0 in
          Array.iteri (fun i (a, _) -> col := !col +. (a.(j) *. dual.(i))) rows;
          Alcotest.(check bool) (label ^ ": A'y >= c") true (!col >= cj -. tol))
        c;
      let by = ref 0.0 in
      Array.iteri (fun i (_, b) -> by := !by +. (b *. dual.(i))) rows;
      Alcotest.(check bool)
        (label ^ ": strong duality")
        true
        (Float.abs (!by -. objective) < tol)
  | _ -> ()

let agree ?(what = "instance") c rows =
  let revised = Simplex.solve ~c ~rows:(sparse_rows rows) () in
  let dense = Oracle.Dense.solve ~c ~rows () in
  Alcotest.(check string)
    (what ^ ": same outcome constructor")
    (outcome_tag dense) (outcome_tag revised);
  (match (revised, dense) with
  | Simplex.Optimal r, Simplex.Optimal d ->
      let tol = 1e-6 *. Float.max 1.0 (Float.abs d.Simplex.objective) in
      Alcotest.(check bool)
        (what ^ ": objectives agree")
        true
        (Float.abs (r.Simplex.objective -. d.Simplex.objective) < tol)
  | _ -> ());
  check_certificates ~label:(what ^ " [revised]") c rows revised;
  check_certificates ~label:(what ^ " [dense]") c rows dense;
  revised

(* --- random families -------------------------------------------------- *)

(* Feasible at x = 0, bounded by construction. *)
let gen_bounded rand =
  let nvars = 1 + Random.State.int rand 7 in
  let nrows = 1 + Random.State.int rand 9 in
  let c = Array.init nvars (fun _ -> Float.of_int (Random.State.int rand 9)) in
  let rows =
    Array.init nrows (fun _ ->
        ( Array.init nvars (fun _ -> Float.of_int (Random.State.int rand 5)),
          Float.of_int (1 + Random.State.int rand 50) ))
  in
  Array.iteri
    (fun j cj ->
      if cj > 0.0 && not (Array.exists (fun (a, _) -> a.(j) > 0.0) rows) then
        (fst rows.(0)).(j) <- 1.0)
    c;
  (c, rows)

(* Rows pass through a known point x0 so rhs can go negative (phase-1
   path) while staying feasible; a capacity row keeps it bounded. *)
let gen_mixed rand =
  let nvars = 1 + Random.State.int rand 5 in
  let nrows = 1 + Random.State.int rand 7 in
  let x0 = Array.init nvars (fun _ -> Float.of_int (Random.State.int rand 4)) in
  let c =
    Array.init nvars (fun _ -> Float.of_int (Random.State.int rand 9 - 3))
  in
  let rows =
    Array.init (nrows + 1) (fun i ->
        if i = nrows then (Array.make nvars 1.0, 100.0)
        else begin
          let a =
            Array.init nvars (fun _ ->
                Float.of_int (Random.State.int rand 7 - 3))
          in
          let ax = ref 0.0 in
          Array.iteri (fun j aj -> ax := !ax +. (aj *. x0.(j))) a;
          (a, !ax +. Float.of_int (Random.State.int rand 4))
        end)
  in
  (c, rows)

(* Degenerate: several rows bind at the same vertex (integer data,
   duplicated and scaled rows). *)
let gen_degenerate rand =
  let nvars = 2 + Random.State.int rand 3 in
  let base =
    Array.init nvars (fun _ -> Float.of_int (1 + Random.State.int rand 3))
  in
  let b0 = Float.of_int (2 + Random.State.int rand 6) in
  let nrows = 3 + Random.State.int rand 4 in
  let c = Array.init nvars (fun _ -> Float.of_int (Random.State.int rand 5)) in
  let rows =
    Array.init nrows (fun i ->
        if i = 0 then (Array.copy base, b0)
        else begin
          let s = Float.of_int (1 + Random.State.int rand 3) in
          let a = Array.map (fun x -> s *. x) base in
          (* same hyperplane scaled, or a unit cap through the same face *)
          if Random.State.bool rand then (a, s *. b0)
          else begin
            let a = Array.make nvars 0.0 in
            a.(Random.State.int rand nvars) <- 1.0;
            (a, b0)
          end
        end)
  in
  (c, rows)

(* A variable with positive objective and no positive row coefficient
   escapes to infinity (when the instance is feasible at all). *)
let gen_unbounded rand =
  let nvars = 2 + Random.State.int rand 4 in
  let nrows = 1 + Random.State.int rand 5 in
  let free = Random.State.int rand nvars in
  let c = Array.init nvars (fun _ -> Float.of_int (Random.State.int rand 6)) in
  c.(free) <- 1.0 +. Float.of_int (Random.State.int rand 5);
  let rows =
    Array.init nrows (fun _ ->
        ( Array.init nvars (fun j ->
              if j = free then 0.0
              else Float.of_int (Random.State.int rand 5)),
          Float.of_int (1 + Random.State.int rand 30) ))
  in
  (c, rows)

(* Contradictory box: x_j <= u and -x_j <= -(u + gap). *)
let gen_infeasible rand =
  let nvars = 1 + Random.State.int rand 4 in
  let j = Random.State.int rand nvars in
  let u = Float.of_int (Random.State.int rand 10) in
  let gap = Float.of_int (1 + Random.State.int rand 10) in
  let c = Array.init nvars (fun _ -> Float.of_int (Random.State.int rand 5)) in
  let cap = (Array.make nvars 0.0, u) in
  (fst cap).(j) <- 1.0;
  let floor_row = (Array.make nvars 0.0, -.(u +. gap)) in
  (fst floor_row).(j) <- -1.0;
  let extra =
    Array.init
      (Random.State.int rand 4)
      (fun _ ->
        ( Array.init nvars (fun _ -> Float.of_int (Random.State.int rand 5)),
          Float.of_int (1 + Random.State.int rand 40) ))
  in
  (c, Array.concat [ [| cap; floor_row |]; extra ])

let test_engines_agree_property () =
  let rand = Random.State.make [| 6021 |] in
  let families =
    [
      ("bounded", gen_bounded);
      ("mixed", gen_mixed);
      ("degenerate", gen_degenerate);
      ("unbounded", gen_unbounded);
      ("infeasible", gen_infeasible);
    ]
  in
  (* 5 families x 40 = 200 instances *)
  List.iter
    (fun (name, gen) ->
      for k = 1 to 40 do
        let c, rows = gen rand in
        ignore (agree ~what:(Printf.sprintf "%s #%d" name k) c rows)
      done)
    families

(* Found by randomized search against the pre-rewrite solver: feasible
   by construction (every row passes through a point at scale ~1e10),
   yet the old absolute 1e-7 phase-1 residual check declared it
   Infeasible — the roundoff left after phase 1 is proportional to the
   rhs magnitude. With scale-relative tolerances both engines solve it. *)
let test_badly_scaled_regression () =
  let c = [| 0.69861744147364191; 0.41134030724646875 |] in
  let rows =
    [|
      ([| -0.49084234032611529; 0.56002241678752807 |], 393272411.17074287);
      ([| -0.67679049511022926; -0.38986598716564758 |], -2232245924.2874694);
      ([| 0.7549952407714986; 0.079212869417379261 |], 1640908639.4301953);
      ([| 0.44006041664870166; 0.55541408944295267 |], 2172301473.5817833);
      ([| 1.0; 1.0 |], 200000000000.0);
    |]
  in
  match agree ~what:"badly scaled" c rows with
  | Simplex.Optimal _ -> ()
  | o -> Alcotest.fail ("expected optimal, got " ^ outcome_tag o)

(* --- degenerate problem shapes (the dense engine's behavior is the
   contract; both engines must honor it) ------------------------------- *)

let test_empty_problems () =
  (* no variables, no constraints: the zero optimum over a point *)
  (match agree ~what:"0x0" [||] [||] with
  | Simplex.Optimal s ->
      checkf "0x0 objective" 0.0 s.Simplex.objective;
      Alcotest.(check int) "0x0 primal size" 0 (Array.length s.Simplex.primal)
  | o -> Alcotest.fail ("0x0: expected optimal, got " ^ outcome_tag o));
  (* no variables, satisfiable row: 0 <= 1 *)
  (match agree ~what:"0 vars sat" [||] [| ([||], 1.0) |] with
  | Simplex.Optimal s -> checkf "objective" 0.0 s.Simplex.objective
  | o -> Alcotest.fail ("0 vars sat: expected optimal, got " ^ outcome_tag o));
  (* no variables, unsatisfiable row: 0 <= -1 *)
  (match agree ~what:"0 vars unsat" [||] [| ([||], -1.0) |] with
  | Simplex.Infeasible -> ()
  | o -> Alcotest.fail ("0 vars unsat: expected infeasible, got " ^ outcome_tag o));
  (* all-zero objective over a non-trivial polytope *)
  (match
     agree ~what:"zero objective" [| 0.0; 0.0 |]
       [| ([| 1.0; 2.0 |], 4.0); ([| -1.0; 1.0 |], -1.0) |]
   with
  | Simplex.Optimal s -> checkf "objective" 0.0 s.Simplex.objective
  | o -> Alcotest.fail ("zero objective: expected optimal, got " ^ outcome_tag o));
  (* zero-row constraint matrix entries but positive rhs *)
  match agree ~what:"zero row" [| 1.0 |] [| ([| 0.0 |], 3.0); ([| 1.0 |], 2.0) |] with
  | Simplex.Optimal s -> checkf "objective" 2.0 s.Simplex.objective
  | o -> Alcotest.fail ("zero row: expected optimal, got " ^ outcome_tag o)

let test_lp_builder_empty () =
  (* the builder with nothing in it: a zero optimum, not an error *)
  (match Lp.solve (Lp.create ()) with
  | Ok s -> checkf "empty builder objective" 0.0 (Lp.objective_value s)
  | Error _ -> Alcotest.fail "empty problem must solve");
  (* constraints but no variables *)
  let p = Lp.create () in
  let _ = Lp.add_le p [] 1.0 in
  (match Lp.solve p with
  | Ok s -> checkf "no-vars objective" 0.0 (Lp.objective_value s)
  | Error _ -> Alcotest.fail "0 <= 1 must solve");
  let q = Lp.create () in
  let _ = Lp.add_ge q [] 1.0 in
  match Lp.solve q with
  | Error Lp.Infeasible -> ()
  | _ -> Alcotest.fail "0 >= 1 must be infeasible"

(* --- revised-engine internals ----------------------------------------- *)

(* Forcing a reinversion every 4 etas exercises the rebuild path (basis
   reordering, pivot selection, xb refresh) hundreds of times across the
   random families; certificates must still hold. *)
let test_frequent_refactorization () =
  let rand = Random.State.make [| 413 |] in
  for k = 1 to 60 do
    let c, rows = (if k mod 2 = 0 then gen_mixed else gen_bounded) rand in
    let outcome =
      Simplex.solve ~refactor_every:4 ~c ~rows:(sparse_rows rows) ()
    in
    (match outcome with
    | Simplex.Optimal _ | Simplex.Unbounded | Simplex.Infeasible -> ()
    | Simplex.Budget_exhausted d | Simplex.Numerical_error d ->
        Alcotest.fail ("refactor stress: solver failure: " ^ d.Simplex.detail));
    check_certificates
      ~label:(Printf.sprintf "refactor stress #%d" k)
      c rows outcome
  done

(* --- dense oracle over a real workload ---------------------------------- *)

(* Run one full experiment cell under [with_check]: every LP the pricing
   pipeline generates is re-solved on the dense tableau and compared.
   Any disagreement shows up in the mismatch count. *)
let test_check_engine_on_experiment_cell () =
  let module WI = Qp_experiments.Workload_instances in
  let module Runner = Qp_experiments.Runner in
  let module V = Qp_workloads.Valuations in
  let inst = WI.skewed ~scale:WI.Tiny ~support:100 ~seed:9 () in
  let cell, mismatches =
    Oracle.with_check (fun () ->
        Runner.run_cell ~profile:Runner.Quick ~seed:1 (V.Uniform_val 100.0)
          inst)
  in
  Alcotest.(check bool)
    "cell produced measurements" true
    (List.length cell.Runner.measurements > 0);
  Alcotest.(check int) "no engine disagreements" 0 mismatches

(* --- warm-started families --------------------------------------------- *)

(* Warm-starting is a pure optimization: a warm resolve must land in the
   same outcome constructor as a cold solve of the same member, with the
   same optimal objective and a valid duality certificate. Chains of
   objective-only, rhs-only and combined perturbations exercise the
   primal-phase-2, dual-simplex and mixed warm paths across all five
   random families. *)
let test_warm_vs_cold_property () =
  let rand = Random.State.make [| 7177 |] in
  let families =
    [
      ("bounded", gen_bounded);
      ("mixed", gen_mixed);
      ("degenerate", gen_degenerate);
      ("unbounded", gen_unbounded);
      ("infeasible", gen_infeasible);
    ]
  in
  (* 5 families x 10 chains x 6 steps = 300 warm/cold comparisons *)
  List.iter
    (fun (name, gen) ->
      for k = 1 to 10 do
        let c0, rows = gen rand in
        let nvars = Array.length c0 and nrows = Array.length rows in
        let fam = Simplex.prepare ~c:c0 ~rows:(sparse_rows rows) () in
        let cur_c = Array.copy c0 in
        let cur_b = Array.map snd rows in
        for step = 0 to 5 do
          let what = Printf.sprintf "%s #%d step %d" name k step in
          (* step 0 solves as prepared; then cycle obj-only / rhs-only /
             both so every warm path gets traffic *)
          let obj_change = step > 0 && step mod 3 <> 2 in
          let rhs_change = step > 0 && step mod 3 <> 1 in
          if obj_change then
            for j = 0 to nvars - 1 do
              cur_c.(j) <-
                Float.max 0.0
                  (cur_c.(j) +. Float.of_int (Random.State.int rand 5 - 2))
            done;
          if rhs_change then
            for i = 0 to nrows - 1 do
              cur_b.(i) <- cur_b.(i) +. Float.of_int (Random.State.int rand 7 - 3)
            done;
          let warm =
            Simplex.resolve
              ?c:(if obj_change then Some (Array.copy cur_c) else None)
              ?rhs:(if rhs_change then Some (Array.copy cur_b) else None)
              fam
          in
          let rows_now = Array.mapi (fun i (a, _) -> (a, cur_b.(i))) rows in
          let cold = Simplex.solve ~c:cur_c ~rows:(sparse_rows rows_now) () in
          let dense = Oracle.Dense.solve ~c:cur_c ~rows:rows_now () in
          Alcotest.(check string)
            (what ^ ": warm = cold constructor")
            (outcome_tag cold) (outcome_tag warm);
          Alcotest.(check string)
            (what ^ ": warm = dense constructor")
            (outcome_tag dense) (outcome_tag warm);
          (match (warm, cold) with
          | Simplex.Optimal w, Simplex.Optimal cc ->
              let tol =
                1e-6 *. Float.max 1.0 (Float.abs cc.Simplex.objective)
              in
              Alcotest.(check bool)
                (what ^ ": warm objective = cold objective")
                true
                (Float.abs (w.Simplex.objective -. cc.Simplex.objective) < tol)
          | _ -> ());
          check_certificates ~label:(what ^ " [warm]") cur_c rows_now warm
        done
      done)
    families

(* Small random CIP instances: a few items, a handful of edges, so the
   capacity sweep is a real warm-started LP family. *)
let random_hypergraph rand =
  let n = 4 + Random.State.int rand 4 in
  let m = 6 + Random.State.int rand 6 in
  let specs =
    Array.init m (fun i ->
        let size = 1 + Random.State.int rand n in
        let items = Array.init size (fun _ -> Random.State.int rand n) in
        (Printf.sprintf "e%d" i, items, Float.of_int (1 + Random.State.int rand 30)))
  in
  Qp_core.Hypergraph.create ~n_items:n specs

(* The cross-engine oracle must hold over warm-started sweeps too: a
   full CIP capacity sweep under [with_check] compares every warm
   resolve against a cold dense solve, so any divergence introduced by
   basis reuse lands in the mismatch count. *)
let test_check_mode_warm_cip () =
  let module Cip = Qp_core.Cip in
  let rand = Random.State.make [| 4242 |] in
  let was = Simplex.warm_starts () in
  Simplex.set_warm_starts true;
  let (), mismatches =
    Fun.protect
      ~finally:(fun () -> Simplex.set_warm_starts was)
      (fun () ->
        Oracle.with_check (fun () ->
            for _ = 1 to 3 do
              let report = Cip.solve_report (random_hypergraph rand) in
              Alcotest.(check bool)
                "CIP solved some LPs" true (report.Cip.solved > 0)
            done))
  in
  Alcotest.(check int) "no warm/cold disagreements" 0 mismatches

(* The seam itself: over a warm CIP sweep the oracle fires exactly once
   per solve — the "simplex.solves" counter covers one-shot solves and
   family resolves alike — and it is gone once its body has raised. *)
let test_oracle_seam () =
  let calls = Atomic.make 0 in
  let count ~c:_ ~rows:_ _ = Atomic.incr calls in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name (Qp_obs.counters ()))
  in
  let h = random_hypergraph (Random.State.make [| 4243 |]) in
  Qp_obs.set_enabled true;
  Qp_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Qp_obs.set_enabled false;
      Qp_obs.reset ())
    (fun () ->
      let report =
        Simplex.with_oracle count (fun () -> Qp_core.Cip.solve_report h)
      in
      Alcotest.(check bool)
        "CIP solved some LPs" true (report.Qp_core.Cip.solved > 0);
      Alcotest.(check bool) "the sweep warm-started" true
        (counter "simplex.warm_hit" > 0);
      Alcotest.(check int) "one oracle call per solve"
        (counter "simplex.solves") (Atomic.get calls));
  let solve () =
    let rows = sparse_rows [| ([| 1.0 |], 1.0) |] in
    ignore (Simplex.solve ~c:[| 1.0 |] ~rows ())
  in
  let seen = Atomic.get calls in
  (match
     Simplex.with_oracle count (fun () ->
         solve ();
         raise Exit)
   with
  | () -> Alcotest.fail "body must raise"
  | exception Exit -> ());
  Alcotest.(check int) "the body's solve reached the oracle" (seen + 1)
    (Atomic.get calls);
  solve ();
  Alcotest.(check int) "no oracle once the body raised" (seen + 1)
    (Atomic.get calls)

(* --- the warm-attempt cap ------------------------------------------------ *)

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Qp_obs.counters ()))

let with_counters f =
  Qp_obs.set_enabled true;
  Qp_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Qp_obs.set_enabled false;
      Qp_obs.reset ())
    f

(* max sum_j c_j x_j s.t. x_j <= 1 for 100 variables. Under c = 0 the
   cold solve takes no pivot, so the next warm attempt is capped at the
   floor, 64 pivots; under c = 1 it needs 100 (one per variable), so it
   is abandoned at the cap and the member is re-solved cold. *)
let test_warm_cap_falls_back () =
  let n = 100 in
  let rows =
    Array.init n (fun i ->
        let a = Array.make n 0.0 in
        a.(i) <- 1.0;
        (a, 1.0))
  in
  let was = Simplex.warm_starts () in
  Simplex.set_warm_starts true;
  Fun.protect ~finally:(fun () -> Simplex.set_warm_starts was) @@ fun () ->
  with_counters @@ fun () ->
  let fam = Simplex.prepare ~c:(Array.make n 0.0) ~rows:(sparse_rows rows) () in
  (match Simplex.resolve fam with
  | Simplex.Optimal s -> checkf "c = 0 objective" 0.0 s.Simplex.objective
  | o -> Alcotest.fail ("c = 0: expected optimal, got " ^ outcome_tag o));
  Alcotest.(check int) "c = 0 is solved cold without pivots" 0
    (counter "simplex.pivots");
  Qp_obs.reset ();
  let c = Array.make n 1.0 in
  let warm = Simplex.resolve ~c fam in
  let dense = Oracle.Dense.solve ~c ~rows () in
  Alcotest.(check string) "same outcome as the dense oracle"
    (outcome_tag dense) (outcome_tag warm);
  (match (warm, dense) with
  | Simplex.Optimal w, Simplex.Optimal d ->
      checkf "objective = dense objective" d.Simplex.objective
        w.Simplex.objective;
      checkf "objective" 100.0 w.Simplex.objective
  | _ -> Alcotest.fail "c = 1: expected optimal");
  check_certificates ~label:"capped member" c rows warm;
  Alcotest.(check int) "the warm attempt stopped at its cap" 64
    (counter "simplex.warm_wasted_pivots");
  Alcotest.(check int) "it counts as a miss" 1 (counter "simplex.warm_miss");
  Alcotest.(check int) "simplex.pivots counts the cold re-solve" n
    (counter "simplex.pivots");
  (* the cold re-solve took 100 pivots, so the cap is now 200 and a
     small objective change warm-starts *)
  Qp_obs.reset ();
  let c = Array.init n (fun j -> 1.0 +. (Float.of_int j /. 1000.0)) in
  (match Simplex.resolve ~c fam with
  | Simplex.Optimal _ -> ()
  | o -> Alcotest.fail ("perturbed: expected optimal, got " ^ outcome_tag o));
  Alcotest.(check int) "the next member warm-starts" 1
    (counter "simplex.warm_hit");
  Alcotest.(check int) "nothing wasted" 0 (counter "simplex.warm_wasted_pivots")

(* The pricing sweeps chunk their families independently of the job
   count, and the warm cap reads only its own family's history, so
   prices, pivot counts and wasted pivots are the same at jobs 1 and
   2. *)
let test_sweeps_identical_across_jobs () =
  let rand = Random.State.make [| 2 |] in
  let n = 40 in
  let specs =
    Array.init 200 (fun i ->
        let items =
          Array.init (1 + Random.State.int rand 10) (fun _ ->
              Random.State.int rand n)
        in
        (Printf.sprintf "e%d" i, items, Float.of_int (1 + Random.State.int rand 99)))
  in
  let h = Qp_core.Hypergraph.create ~n_items:n specs in
  let run jobs =
    with_counters @@ fun () ->
    let cip =
      Qp_core.Cip.solve
        ~options:{ Qp_core.Cip.default_options with jobs = Some jobs }
        h
    in
    let lpip =
      Qp_core.Lpip.solve
        ~options:
          { Qp_core.Lpip.max_candidates = Some 24; max_pivots = 200_000;
            jobs = Some jobs }
        h
    in
    ( (cip, lpip),
      (counter "simplex.pivots", counter "simplex.warm_wasted_pivots",
       counter "simplex.warm_hit") )
  in
  let p1, c1 = run 1 and p2, c2 = run 2 in
  Alcotest.(check bool) "bit-identical prices" true (p1 = p2);
  let pivots, wasted, hits = c1 in
  Alcotest.(check bool)
    "the sweeps warm-started, and abandoned some warm attempts" true
    (pivots > 0 && hits > 0 && wasted > 0);
  Alcotest.(check (triple int int int))
    "same pivots, wasted pivots and warm hits" (pivots, wasted, hits) c2

(* --- one entry point ------------------------------------------------------ *)

(* An outcome with every float replaced by its bit pattern, so that
   structural equality means bit-identity. Diagnostics compare as they
   are. *)
let outcome_bits = function
  | Simplex.Optimal { Simplex.objective; primal; dual } ->
      `Optimal
        ( Int64.bits_of_float objective,
          Array.map Int64.bits_of_float primal,
          Array.map Int64.bits_of_float dual )
  | Simplex.Unbounded -> `Unbounded
  | Simplex.Infeasible -> `Infeasible
  | Simplex.Budget_exhausted d -> `Budget_exhausted d
  | Simplex.Numerical_error d -> `Numerical_error d

(* A one-shot solve is the first resolve of a fresh family: on seeded
   random LPs (negative right-hand sides, infeasible and unbounded
   instances, and a pivot budget too small to finish) both report the
   same outcome, bit for bit, diagnostics included. *)
let test_solve_is_first_resolve () =
  let rand = Random.State.make [| 1818 |] in
  let tags = Hashtbl.create 8 and negative_rhs = ref 0 in
  let check ?max_pivots what (c, rows) =
    let one_shot = Simplex.solve ?max_pivots ~c ~rows:(sparse_rows rows) () in
    let first =
      Simplex.resolve (Simplex.prepare ?max_pivots ~c ~rows:(sparse_rows rows) ())
    in
    Alcotest.(check string) (what ^ ": same outcome")
      (outcome_tag first) (outcome_tag one_shot);
    Alcotest.(check bool) (what ^ ": bit-identical outcome") true
      (outcome_bits one_shot = outcome_bits first);
    Hashtbl.replace tags (outcome_tag one_shot) ();
    if Array.exists (fun (_, b) -> b < 0.0) rows then incr negative_rhs
  in
  List.iter
    (fun (name, gen, max_pivots) ->
      for k = 1 to 30 do
        check ?max_pivots (Printf.sprintf "%s #%d" name k) (gen rand)
      done)
    [
      ("bounded", gen_bounded, None);
      ("mixed", gen_mixed, None);
      ("degenerate", gen_degenerate, None);
      ("unbounded", gen_unbounded, None);
      ("infeasible", gen_infeasible, None);
      ("budget", gen_bounded, Some 1);
    ];
  List.iter
    (fun tag ->
      Alcotest.(check bool) ("covered: " ^ tag) true (Hashtbl.mem tags tag))
    [ "optimal"; "unbounded"; "infeasible"; "budget_exhausted" ];
  Alcotest.(check bool) "covered: negative right-hand sides" true
    (!negative_rhs > 0)

(* The builder's one-shot solve is the first resolve of a fresh batch:
   same objective, primal and user-facing duals, bit for bit, on a
   problem mixing <=, >= and = rows. *)
let test_lp_solve_is_first_batch_resolve () =
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:3.0 () in
  let y = Lp.add_var p ~obj:2.0 () in
  let z = Lp.add_var p ~obj:1.0 () in
  let rows =
    [
      Lp.add_le p [ (1.0, x); (1.0, y); (1.0, z) ] 10.0;
      Lp.add_ge p [ (1.0, x); (-1.0, y) ] (-2.0);
      Lp.add_eq p [ (1.0, x); (1.0, z) ] 4.0;
      Lp.add_le p [ (1.0, y) ] 6.0;
      Lp.add_ge p [ (1.0, y); (2.0, z) ] 1.0;
    ]
  in
  match (Lp.solve p, Lp.Batch.resolve (Lp.Batch.prepare p)) with
  | Ok a, Ok b ->
      let bits f = Int64.bits_of_float f in
      Alcotest.(check int64) "objective" (bits (Lp.objective_value b))
        (bits (Lp.objective_value a));
      List.iter
        (fun v ->
          Alcotest.(check int64) "primal" (bits (Lp.value b v))
            (bits (Lp.value a v)))
        [ x; y; z ];
      List.iteri
        (fun i r ->
          Alcotest.(check int64)
            (Printf.sprintf "dual of row %d" i)
            (bits (Lp.dual b r)) (bits (Lp.dual a r)))
        rows
  | _ -> Alcotest.fail "expected both solves optimal"

(* Every simplex.solve span — cold or warm — closes with the same
   diagnostics. Structure lines are indented two spaces per depth; an
   [end] line sits one level deeper than the span it closes. *)
let test_every_solve_span_has_diagnostics () =
  let h = random_hypergraph (Random.State.make [| 4243 |]) in
  let was = Simplex.warm_starts () in
  Simplex.set_warm_starts true;
  Fun.protect ~finally:(fun () -> Simplex.set_warm_starts was) @@ fun () ->
  with_counters @@ fun () ->
  let report = Qp_core.Cip.solve_report h in
  Alcotest.(check bool) "CIP solved some LPs" true
    (report.Qp_core.Cip.solved > 0);
  Alcotest.(check bool) "the sweep warm-started" true
    (counter "simplex.warm_hit" > 0);
  let open_at = Hashtbl.create 16 and opened = ref 0 and closes = ref [] in
  List.iter
    (fun line ->
      let n = String.length line in
      let i = ref 0 in
      while !i < n && line.[!i] = ' ' do incr i done;
      let depth = !i / 2 and body = String.sub line !i (n - !i) in
      if String.starts_with ~prefix:"span " body then begin
        let label =
          List.hd (String.split_on_char ' ' (String.sub body 5 (String.length body - 5)))
        in
        Hashtbl.replace open_at depth label;
        if label = "simplex.solve" then incr opened
      end
      else if
        String.starts_with ~prefix:"end [" body
        && Hashtbl.find_opt open_at (depth - 1) = Some "simplex.solve"
      then closes := body :: !closes)
    (String.split_on_char '\n' (Qp_obs.structure ()));
  Alcotest.(check int) "one simplex.solve span per solve"
    (counter "simplex.solves") !opened;
  Alcotest.(check int) "every simplex.solve span closes with args" !opened
    (List.length !closes);
  List.iter
    (fun body ->
      List.iter
        (fun key ->
          if not (Astring_contains.contains body (" " ^ key ^ "=")
                  || Astring_contains.contains body ("[" ^ key ^ "="))
          then Alcotest.failf "simplex.solve closed without %s: %s" key body)
        [
          "phase1_pivots"; "degenerate_pivots"; "bland_engaged"; "etas";
          "refactorizations"; "warm_hit"; "outcome";
        ])
    !closes

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "simplex-engines",
    [
      t "engines agree on 200 random LPs (5 families)"
        test_engines_agree_property;
      t "badly-scaled LP no longer misclassified infeasible"
        test_badly_scaled_regression;
      t "empty/degenerate problem shapes" test_empty_problems;
      t "builder: empty problems" test_lp_builder_empty;
      t "revised engine under frequent reinversion"
        test_frequent_refactorization;
      t "check engine over a full experiment cell"
        test_check_engine_on_experiment_cell;
      t "warm resolve = cold solve on 300 perturbation chains"
        test_warm_vs_cold_property;
      t "check mode over warm-started CIP sweeps" test_check_mode_warm_cip;
      t "oracle seam fires once per solve, uninstalls on raise"
        test_oracle_seam;
      t "warm attempt past its cap falls back cold" test_warm_cap_falls_back;
      t "sweeps identical at jobs 1 and 2 under the warm cap"
        test_sweeps_identical_across_jobs;
      t "one-shot solve = first resolve of a fresh family, bit for bit"
        test_solve_is_first_resolve;
      t "Lp.solve = first Batch.resolve, bit-identical duals"
        test_lp_solve_is_first_batch_resolve;
      t "every simplex.solve span closes with the same diagnostics"
        test_every_solve_span_has_diagnostics;
    ] )
