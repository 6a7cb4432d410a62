(* Chaos tests for the fault-injection registry and the graceful
   degradation it exercises: spec parsing, schedule determinism,
   containment in the worker pool and the conflict builder, the typed
   LP fallbacks, Bland's anti-cycling rule on Beale's example, and the
   runner's retry/partial-sweep behavior.

   Every test that arms the registry does so through [with_faults],
   which restores the disarmed state however the test exits — a
   leftover spec would poison every suite that runs after this one. *)

module F = Qp_fault
module Simplex = Qp_lp.Simplex

(* The tests write rows densely; the revised engine takes sparse rows. *)
let sparse_rows rows =
  Array.map (fun (a, b) -> (Qp_lp.Sparse.of_dense a, b)) rows
module H = Qp_core.Hypergraph
module P = Qp_core.Pricing
module Lpip = Qp_core.Lpip
module Cip = Qp_core.Cip
module Xos = Qp_core.Xos
module Degrade = Qp_core.Degrade
module Parallel = Qp_util.Parallel
module WI = Qp_experiments.Workload_instances
module Runner = Qp_experiments.Runner
module V = Qp_workloads.Valuations
module C = Qp_market.Conflict

let with_faults spec f =
  (match F.parse spec with
  | Ok specs -> F.install specs
  | Error msg -> Alcotest.failf "bad test spec %S: %s" spec msg);
  Fun.protect ~finally:F.clear f

(* --- spec grammar ----------------------------------------------------- *)

let test_parse_roundtrip () =
  let spec = "simplex.pivot:fail:p=0.5:nth=3:seed=7" in
  match F.parse spec with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok [ s ] ->
      Alcotest.(check string) "site" "simplex.pivot" s.F.site;
      Alcotest.(check bool) "kind" true (s.F.kind = F.Fail);
      Alcotest.(check (float 1e-9)) "p" 0.5 s.F.p;
      Alcotest.(check (option int)) "nth" (Some 3) s.F.nth;
      Alcotest.(check int) "seed" 7 s.F.seed;
      (* describe renders the canonical form, which must re-parse to
         the same spec *)
      (match F.parse (F.describe s) with
      | Ok [ s' ] -> Alcotest.(check bool) "roundtrip" true (s = s')
      | Ok _ | Error _ -> Alcotest.fail "describe did not roundtrip")
  | Ok l -> Alcotest.failf "expected one spec, got %d" (List.length l)

let test_parse_list_and_defaults () =
  match F.parse "parallel.task:nan, runner.cell:fail:p=0.25" with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok [ a; b ] ->
      Alcotest.(check bool) "nan kind" true (a.F.kind = F.Nan);
      Alcotest.(check (float 1e-9)) "default p" 1.0 a.F.p;
      Alcotest.(check (option int)) "default nth" None a.F.nth;
      Alcotest.(check int) "default seed" 0 a.F.seed;
      Alcotest.(check string) "second site" "runner.cell" b.F.site
  | Ok l -> Alcotest.failf "expected two specs, got %d" (List.length l)

let test_parse_rejects () =
  List.iter
    (fun bad ->
      match F.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" bad)
    [
      "nonsense.site:fail";
      "simplex.pivot";
      "simplex.pivot:explode";
      "simplex.pivot:fail:p=2";
      "simplex.pivot:fail:p=-0.5";
      "simplex.pivot:fail:nth=0";
      "simplex.pivot:fail:bogus=1";
    ];
  (* an empty spec string (QP_FAULTS unset semantics) is not an error,
     it is simply no specs *)
  match F.parse "" with
  | Ok [] -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty spec string should parse to []"

(* --- schedule determinism --------------------------------------------- *)

let firing_keys ?(attempt = 0) site n =
  List.filter
    (fun k -> F.check ~attempt ~key:k site <> None)
    (List.init n Fun.id)

let test_check_deterministic () =
  with_faults "parallel.task:fail:p=0.4:seed=11" @@ fun () ->
  let a = firing_keys "parallel.task" 500 in
  let b = firing_keys "parallel.task" 500 in
  Alcotest.(check bool) "same schedule on re-query" true (a = b);
  Alcotest.(check bool) "fires somewhere" true (a <> []);
  Alcotest.(check bool) "not everywhere" true (List.length a < 500);
  Alcotest.(check bool) "other sites untouched" true
    (firing_keys "simplex.pivot" 100 = [])

let test_attempt_redraws () =
  with_faults "runner.cell:fail:p=0.5:seed=3" @@ fun () ->
  let first = firing_keys ~attempt:0 "runner.cell" 200 in
  let retry = firing_keys ~attempt:1 "runner.cell" 200 in
  Alcotest.(check bool) "retry re-draws the schedule" true (first <> retry);
  (* p=1 must fire at every attempt: a retry is a fresh draw, not an
     escape hatch from a certain fault *)
  F.install
    [ { F.site = "runner.cell"; kind = F.Fail; p = 1.0; nth = None; seed = 0 } ];
  Alcotest.(check int) "p=1 fires on attempt 0" 200
    (List.length (firing_keys ~attempt:0 "runner.cell" 200));
  Alcotest.(check int) "p=1 fires on attempt 1" 200
    (List.length (firing_keys ~attempt:1 "runner.cell" 200))

let test_nth_gates_eligibility () =
  with_faults "parallel.task:fail:nth=5" @@ fun () ->
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "key %d" k)
        (k mod 5 = 0)
        (F.check ~key:k "parallel.task" <> None))
    (List.init 50 Fun.id)

let test_disarmed_is_silent () =
  F.clear ();
  Alcotest.(check bool) "disabled" false (F.enabled ());
  Alcotest.(check bool) "no firing" true (firing_keys "parallel.task" 100 = []);
  Alcotest.(check bool) "no injections" true (F.injections () = [])

let test_injection_counts () =
  with_faults "parallel.task:fail:nth=10" @@ fun () ->
  for k = 0 to 99 do
    ignore (F.check ~key:k "parallel.task")
  done;
  Alcotest.(check bool) "ten firings recorded" true
    (F.injections () = [ ("parallel.task", 10) ])

(* --- containment in the worker pool ----------------------------------- *)

let test_parallel_contained_deterministic () =
  with_faults "parallel.task:fail:p=0.3:seed=2" @@ fun () ->
  let expect_fail = firing_keys "parallel.task" 60 in
  let outcome jobs =
    Array.to_list (Parallel.map_result ~jobs (fun x -> x * x) (Array.init 60 Fun.id))
    |> List.map (function
         | Ok y -> `Ok y
         | Error (e : Parallel.task_error) -> `Failed e.Parallel.index)
  in
  let j1 = outcome 1 in
  Alcotest.(check bool) "jobs=2 identical" true (j1 = outcome 2);
  Alcotest.(check bool) "jobs=4 identical" true (j1 = outcome 4);
  let failed =
    List.filter_map (function `Failed i -> Some i | `Ok _ -> None) j1
  in
  Alcotest.(check bool) "failures follow the schedule" true (failed = expect_fail);
  List.iteri
    (fun i o -> if not (List.mem i expect_fail) then
        Alcotest.(check bool) "survivor intact" true (o = `Ok (i * i)))
    j1

let test_parallel_map_reraises_lowest_index () =
  with_faults "parallel.task:fail:nth=7" @@ fun () ->
  (* keys 0, 7, 14, ... fire; [map] must surface the lowest index's
     error whatever the schedule, after draining every task *)
  match Parallel.map ~jobs:4 Fun.id (Array.init 20 Fun.id) with
  | _ -> Alcotest.fail "expected the injected fault to re-raise"
  | exception F.Injected site -> Alcotest.(check string) "site" "parallel.task" site

(* --- typed LP give-ups and graceful degradation ------------------------ *)

let small_h =
  lazy
    (H.create ~n_items:4
       [|
         ("e0", [| 0; 1 |], 10.0);
         ("e1", [| 1; 2 |], 8.0);
         ("e2", [| 2; 3 |], 6.0);
         ("e3", [| 0; 3 |], 4.0);
       |])

let test_lpip_degrades_to_uip () =
  with_faults "simplex.pivot:stall" @@ fun () ->
  let h = Lazy.force small_h in
  let r = Lpip.solve_report h in
  Alcotest.(check int) "no LP solved" 0 r.Lpip.solved;
  Alcotest.(check bool) "failures recorded" true (r.Lpip.failures <> []);
  Alcotest.(check bool) "budget_exhausted tag" true
    (List.mem_assoc "budget_exhausted" r.Lpip.failures);
  match r.Lpip.degraded with
  | None -> Alcotest.fail "expected a degradation marker"
  | Some m ->
      Alcotest.(check string) "algorithm" "lpip" m.Degrade.algorithm;
      Alcotest.(check string) "fallback" "uip" m.Degrade.fallback;
      Alcotest.(check (float 1e-9)) "pricing is the UIP fallback"
        (P.revenue (Qp_core.Uip.solve h) h)
        (P.revenue r.Lpip.pricing h)

let test_cip_degrades_to_ubp () =
  with_faults "simplex.pivot:stall" @@ fun () ->
  let h = Lazy.force small_h in
  let r = Cip.solve_report h in
  Alcotest.(check int) "no LP solved" 0 r.Cip.solved;
  match r.Cip.degraded with
  | None -> Alcotest.fail "expected a degradation marker"
  | Some m ->
      Alcotest.(check string) "algorithm" "cip" m.Degrade.algorithm;
      Alcotest.(check string) "fallback" "ubp" m.Degrade.fallback;
      Alcotest.(check (float 1e-9)) "pricing is the UBP fallback"
        (P.revenue (Qp_core.Ubp.solve h) h)
        (P.revenue r.Cip.pricing h)

let test_xos_drops_non_additive_component () =
  with_faults "simplex.pivot:stall" @@ fun () ->
  (* LPIP degrades to UIP (additive), CIP to UBP (not additive): the
     XOS max must keep the former and drop the latter, not crash *)
  let h = Lazy.force small_h in
  let r = Xos.solve_report h in
  match r.Xos.degraded with
  | Some m ->
      Alcotest.(check string) "fallback" "additive-subset" m.Degrade.fallback;
      Alcotest.(check bool) "pricing is additive" true
        (match r.Xos.pricing with P.Xos _ | P.Item _ -> true | _ -> false)
  | None -> Alcotest.fail "expected a degradation marker"

let test_nan_injection_is_numerical_error () =
  with_faults "simplex.pivot:nan" @@ fun () ->
  let rows = sparse_rows [| ([| 1.0 |], 1.0) |] in
  match Simplex.solve ~c:[| 1.0 |] ~rows () with
  | Simplex.Numerical_error d ->
      Alcotest.(check bool) "detail mentions injection" true
        (String.length d.Simplex.detail > 0)
  | _ -> Alcotest.fail "expected Numerical_error"

(* --- Bland's rule on Beale's cycling example --------------------------- *)

let beale () =
  ( [| 0.75; -150.0; 0.02; -6.0 |],
    sparse_rows
      [|
        ([| 0.25; -60.0; -0.04; 9.0 |], 0.0);
        ([| 0.5; -90.0; -0.02; 3.0 |], 0.0);
        ([| 0.0; 0.0; 1.0; 0.0 |], 1.0);
      |] )

let test_beale_cycles_without_fallback () =
  let c, rows = beale () in
  (* stall_threshold = max_int exposes the raw Dantzig rule, which
     cycles on this instance forever: every pivot is degenerate and the
     budget is the only thing that stops it *)
  match Simplex.solve ~max_pivots:100 ~stall_threshold:max_int ~c ~rows () with
  | Simplex.Budget_exhausted d ->
      Alcotest.(check int) "burned the whole budget" 100 d.Simplex.pivots;
      Alcotest.(check int) "every pivot degenerate" d.Simplex.pivots
        d.Simplex.degenerate_pivots;
      Alcotest.(check bool) "fallback disabled" false d.Simplex.bland_engaged
  | _ -> Alcotest.fail "expected the raw rule to exhaust its budget"

let test_beale_solved_by_stall_fallback () =
  let c, rows = beale () in
  (* the default stall threshold trips on the degenerate run and
     Bland's rule finishes the solve *)
  match Simplex.solve ~stall_threshold:3 ~c ~rows () with
  | Simplex.Optimal s ->
      Alcotest.(check (float 1e-9)) "Beale optimum" 0.05 s.Simplex.objective
  | _ -> Alcotest.fail "expected Optimal under the anti-cycling fallback"

(* --- conflict-set construction under faults ---------------------------- *)

let tiny = lazy (WI.skewed ~scale:WI.Tiny ~support:60 ~seed:9 ())

let test_conflict_retries_and_drops () =
  let inst = Lazy.force tiny in
  let valued = List.map (fun q -> (q, 1.0)) inst.WI.queries in
  let build jobs =
    let h, stats = C.hypergraph ~jobs inst.WI.db valued inst.WI.deltas in
    ( Array.map (fun (e : H.edge) -> (e.H.name, e.H.items)) (H.edges h),
      List.map fst stats.C.failed_queries )
  in
  let healthy, none = build 1 in
  Alcotest.(check bool) "healthy build drops nothing" true (none = []);
  with_faults "conflict.query:fail:p=0.4:seed=6" @@ fun () ->
  let edges1, failed1 = build 1 in
  let edges3, failed3 = build 3 in
  Alcotest.(check bool) "dropped some queries" true (failed1 <> []);
  Alcotest.(check bool) "kept some queries" true (edges1 <> [||]);
  Alcotest.(check bool) "deterministic at jobs=3 (edges)" true (edges1 = edges3);
  Alcotest.(check bool) "deterministic at jobs=3 (drops)" true (failed1 = failed3);
  (* the retry layer redraws with attempt=1, so only queries whose
     fault fires on both attempts are dropped: strictly fewer than the
     first-attempt schedule *)
  let first_attempt =
    List.length (firing_keys "conflict.query" (List.length valued))
  in
  Alcotest.(check bool) "retries recovered some queries" true
    (List.length failed1 < first_attempt);
  (* survivors carry exactly their healthy-build conflict sets *)
  Array.iter
    (fun (name, items) ->
      match
        Array.find_opt (fun (n, _) -> n = name) healthy
      with
      | Some (_, healthy_items) ->
          Alcotest.(check bool) ("survivor intact: " ^ name) true
            (items = healthy_items)
      | None -> Alcotest.failf "unexpected edge %s" name)
    edges1

(* --- runner retry and partial sweeps ----------------------------------- *)

let test_runner_cell_retry_then_fail () =
  let inst = Lazy.force tiny in
  with_faults "runner.cell:fail" @@ fun () ->
  match
    Runner.run_cell_result ~retry_backoff:0.0 ~profile:Runner.Quick ~seed:1
      (V.Uniform_val 100.0) inst
  with
  | Ok _ -> Alcotest.fail "expected the p=1 fault to defeat the retry"
  | Error f ->
      Alcotest.(check int) "both attempts made" 2 f.Runner.attempts;
      Alcotest.(check string) "instance recorded" inst.WI.label
        f.Runner.failed_instance;
      let contains ~needle hay =
        let n = String.length needle and h = String.length hay in
        let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "error names the site" true
        (contains ~needle:"runner.cell" f.Runner.error)

let test_runner_sweep_partial_and_deterministic () =
  let inst = Lazy.force tiny in
  let models =
    [ V.Uniform_val 100.0; V.Uniform_val 200.0; V.Zipf_val 2.0; V.Zipf_val 1.5 ]
  in
  with_faults "runner.cell:fail:p=0.5:seed=1" @@ fun () ->
  let sweep jobs =
    let cells, failures =
      Runner.run_cells ~jobs ~profile:Runner.Quick ~seed:1 models inst
    in
    ( List.map (fun (c : Runner.cell) -> c.Runner.model) cells,
      List.map (fun (f : Runner.cell_failure) -> f.Runner.failed_model) failures )
  in
  let ok1, failed1 = sweep 1 in
  let ok2, failed2 = sweep 2 in
  Alcotest.(check int) "every model accounted for" (List.length models)
    (List.length ok1 + List.length failed1);
  Alcotest.(check bool) "cells deterministic across jobs" true (ok1 = ok2);
  Alcotest.(check bool) "failures deterministic across jobs" true
    (failed1 = failed2)

let test_runner_healthy_unchanged () =
  F.clear ();
  let inst = Lazy.force tiny in
  let direct =
    Runner.run_cell ~profile:Runner.Quick ~seed:4 (V.Uniform_val 100.0) inst
  in
  (match
     Runner.run_cell_result ~profile:Runner.Quick ~seed:4 (V.Uniform_val 100.0)
       inst
   with
  | Error f -> Alcotest.fail (Runner.pp_cell_failure f)
  | Ok cell ->
      Alcotest.(check bool) "result layer adds nothing on success" true
        (List.map (fun (m : Runner.measurement) -> (m.Runner.algorithm, m.Runner.normalized))
           cell.Runner.measurements
        = List.map (fun (m : Runner.measurement) -> (m.Runner.algorithm, m.Runner.normalized))
            direct.Runner.measurements));
  List.iter
    (fun (m : Runner.measurement) ->
      Alcotest.(check (option string)) "healthy cell never degraded" None
        m.Runner.degraded)
    direct.Runner.measurements

(* A degraded sweep's span must describe the pricing it returns: under a
   stall on every pivot each sweep closes with its fallback's revenue and
   names the fallback, for LPIP (UIP) as for CIP (UBP). *)
let test_degraded_sweeps_close_with_fallback () =
  with_faults "simplex.pivot:stall" @@ fun () ->
  let h = Lazy.force small_h in
  List.iter
    (fun (label, solve, fallback, fallback_solve) ->
      Qp_obs.set_enabled true;
      Qp_obs.reset ();
      let closing =
        Fun.protect
          ~finally:(fun () ->
            Qp_obs.set_enabled false;
            Qp_obs.reset ())
          (fun () ->
            ignore (solve h);
            (* The sweep span is the only top-level span, so its closing
               args are the only [end] line at depth 1. *)
            List.filter
              (String.starts_with ~prefix:"  end [")
              (String.split_on_char '\n' (Qp_obs.structure ())))
      in
      match closing with
      | [ line ] ->
          let expect key value =
            if not (Astring_contains.contains line (" " ^ key ^ "=" ^ value))
            then Alcotest.failf "%s closed without %s=%s: %s" label key value line
          in
          expect "best_revenue"
            (Printf.sprintf "%.17g" (P.revenue (fallback_solve h) h));
          expect "fallback" fallback
      | lines ->
          Alcotest.failf "%s: expected one closing line, got %d" label
            (List.length lines))
    [
      ("lpip.solve", (fun h -> Lpip.solve h), "uip", Qp_core.Uip.solve);
      ("cip.solve", (fun h -> Cip.solve h), "ubp", Qp_core.Ubp.solve);
    ]

(* Under a stall on every pivot CIP falls back to UBP, and the two
   spans must report the same revenue for that one pricing: the
   [ubp.solve] span used to close with its sweep score (price × buyers)
   while [cip.solve] closed with [Pricing.revenue], and on the skewed
   Tiny instance the two differed in the last digits. *)
let test_ubp_and_cip_close_with_one_revenue () =
  let inst = Lazy.force tiny in
  let h =
    V.apply ~rng:(Qp_util.Rng.create 3) (V.Uniform_val 100.0)
      inst.WI.hypergraph
  in
  with_faults "simplex.pivot:stall" @@ fun () ->
  Qp_obs.set_enabled true;
  Qp_obs.reset ();
  let lines =
    Fun.protect
      ~finally:(fun () ->
        Qp_obs.set_enabled false;
        Qp_obs.reset ())
      (fun () ->
        ignore (Cip.solve h);
        Array.of_list (String.split_on_char '\n' (Qp_obs.structure ())))
  in
  let indent l = String.length l - String.length (String.trim l) in
  (* The [best_revenue] of a span's closing line: the first [end] line
     one level deeper than the span's opening line. *)
  let closing_revenue label =
    let rec find_open i =
      if i >= Array.length lines then Alcotest.failf "no %s span" label
      else if String.starts_with ~prefix:("span " ^ label) (String.trim lines.(i))
      then i
      else find_open (i + 1)
    in
    let o = find_open 0 in
    let rec find_end i =
      if i >= Array.length lines then Alcotest.failf "%s never closed" label
      else if
        indent lines.(i) = indent lines.(o) + 2
        && String.starts_with ~prefix:"end [" (String.trim lines.(i))
      then lines.(i)
      else find_end (i + 1)
    in
    let line = String.trim (find_end (o + 1)) in
    let args = String.sub line 5 (String.length line - 6) in
    match
      List.find_map
        (fun tok ->
          match String.split_on_char '=' tok with
          | [ "best_revenue"; v ] -> Some v
          | _ -> None)
        (String.split_on_char ' ' args)
    with
    | Some v -> v
    | None -> Alcotest.failf "%s closed without best_revenue: %s" label line
  in
  let cip = closing_revenue "cip.solve" in
  Alcotest.(check string) "ubp.solve best_revenue = cip.solve best_revenue"
    cip (closing_revenue "ubp.solve");
  Alcotest.(check string) "both are Pricing.revenue of the UBP pricing"
    (Printf.sprintf "%.17g" (P.revenue (Qp_core.Ubp.solve h) h))
    cip

let suite =
  ( "fault",
    [
      Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
      Alcotest.test_case "parse list + defaults" `Quick test_parse_list_and_defaults;
      Alcotest.test_case "parse rejects malformed" `Quick test_parse_rejects;
      Alcotest.test_case "check deterministic" `Quick test_check_deterministic;
      Alcotest.test_case "attempt re-draws" `Quick test_attempt_redraws;
      Alcotest.test_case "nth gates eligibility" `Quick test_nth_gates_eligibility;
      Alcotest.test_case "disarmed is silent" `Quick test_disarmed_is_silent;
      Alcotest.test_case "injection counts" `Quick test_injection_counts;
      Alcotest.test_case "parallel containment deterministic" `Quick
        test_parallel_contained_deterministic;
      Alcotest.test_case "map re-raises lowest index" `Quick
        test_parallel_map_reraises_lowest_index;
      Alcotest.test_case "lpip degrades to uip" `Quick test_lpip_degrades_to_uip;
      Alcotest.test_case "cip degrades to ubp" `Quick test_cip_degrades_to_ubp;
      Alcotest.test_case "xos drops non-additive" `Quick
        test_xos_drops_non_additive_component;
      Alcotest.test_case "nan becomes Numerical_error" `Quick
        test_nan_injection_is_numerical_error;
      Alcotest.test_case "Beale cycles without fallback" `Quick
        test_beale_cycles_without_fallback;
      Alcotest.test_case "Beale solved by stall fallback" `Quick
        test_beale_solved_by_stall_fallback;
      Alcotest.test_case "conflict retries and drops" `Quick
        test_conflict_retries_and_drops;
      Alcotest.test_case "runner cell retry then fail" `Quick
        test_runner_cell_retry_then_fail;
      Alcotest.test_case "runner sweep partial + deterministic" `Quick
        test_runner_sweep_partial_and_deterministic;
      Alcotest.test_case "runner healthy unchanged" `Quick
        test_runner_healthy_unchanged;
      Alcotest.test_case "degraded sweeps close with the fallback" `Quick
        test_degraded_sweeps_close_with_fallback;
      Alcotest.test_case "ubp and cip close with one revenue" `Quick
        test_ubp_and_cip_close_with_one_revenue;
    ] )
