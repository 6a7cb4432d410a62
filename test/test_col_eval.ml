(* Cross-engine identity: the columnar engine must enumerate exactly
   the environments the row engine does, so full answers, conflict sets
   and whole hypergraphs are bit-identical between engines. Both full
   answers (Qp_rel_oracle.run) and delta answers (Qp_rel_oracle.prepare)
   compare with the row-at-a-time reference in Qp_rel_oracle. *)

open Fixtures
module Col_eval = R.Col_eval
module Delta_eval = R.Delta_eval
module Delta = R.Delta
module Result_set = R.Result_set
module WI = Qp_experiments.Workload_instances
module Conflict = Qp_market.Conflict
module H = Qp_core.Hypergraph

(* 120 random databases x 8 query shapes: the full answers agree. *)
let test_run_matches_row () =
  let rand = Random.State.make [| 1811 |] in
  for round = 1 to 120 do
    let database = random_db rand in
    for qi = 1 to 8 do
      let query = random_query rand ((round * 10) + qi) in
      let row = Qp_rel_oracle.run database query in
      let col = Col_eval.run database query in
      if not (Result_set.equal row col) then
        Alcotest.failf "round %d: engines disagree on %s" round
          (Query.to_sql query)
    done
  done

(* The vectorized LIKE kernel evaluates patterns over the dictionary;
   pin it against the row engine (itself property-tested against a
   naive reference in test_like.ml) across random pattern shapes. *)
let test_like_kernel_matches_row () =
  let rand = Random.State.make [| 4243 |] in
  let pattern () =
    String.init
      (1 + Random.State.int rand 6)
      (fun _ -> "ab%_c%".[Random.State.int rand 6])
  in
  for round = 1 to 200 do
    let database = random_db rand in
    let query =
      Query.make
        ~name:(Printf.sprintf "L%d" round)
        ~from:[ "Users" ]
        ~where:(Expr.Like (Expr.col "name", pattern ()))
        [ Query.Field (Expr.col "name", "name") ]
    in
    let row = Qp_rel_oracle.run database query in
    let col = Col_eval.run database query in
    if not (Result_set.equal row col) then
      Alcotest.failf "round %d: LIKE kernel diverges on %s" round
        (Query.to_sql query)
  done

(* The row engine is the reference: on the big random property, a
   columnar preparation must answer every delta exactly as the row
   oracle's preparation of the same query does. *)
let test_engines_agree_per_delta () =
  let rand = Random.State.make [| 9001 |] in
  for round = 1 to 60 do
    let database = random_db rand in
    for qi = 1 to 8 do
      let query = random_query rand ((round * 10) + qi) in
      let row = Qp_rel_oracle.prepare database query in
      let col = Delta_eval.prepare database query in
      for _ = 1 to 10 do
        let delta = random_delta rand database in
        if Delta_eval.differs row delta <> Delta_eval.differs col delta then
          Alcotest.failf "round %d: engines disagree on a delta for %s" round
            (Query.to_sql query)
      done
    done
  done

let fingerprint h =
  Array.map (fun e -> (e.H.name, e.H.items, e.H.valuation)) (H.edges h)

(* All four paper workloads at tiny scale: row and columnar builds
   produce bit-identical hypergraphs with zero conflict-set
   disagreements. *)
let test_workload_hypergraph_identity () =
  List.iter
    (fun key ->
      let inst = WI.build key ~scale:WI.Tiny ~seed:7 () in
      let valued = List.map (fun q -> (q, 1.0)) inst.WI.queries in
      let build ?prepare () =
        fst
          (Conflict.hypergraph ~jobs:1 ?prepare inst.WI.db valued
             inst.WI.deltas)
      in
      let h_row = build ~prepare:Qp_rel_oracle.prepare () in
      let h_col = build () in
      Alcotest.(check bool)
        (key ^ ": row = columnar")
        true
        (fingerprint h_row = fingerprint h_col);
      Alcotest.(check int)
        (key ^ ": disagreements")
        0
        (List.length (Conflict.disagreements h_row h_col)))
    WI.keys

(* Satellite of ISSUE 10: Q16 (plain LIMIT 2 over Country) used to be
   the skewed workload's single fallback; it now gets the dedicated
   limited strategy, and the workload builds fallback-free. *)
let test_skewed_has_no_fallback () =
  let inst = WI.skewed ~scale:WI.Tiny ~seed:7 () in
  Alcotest.(check int) "skewed fallback queries" 0
    inst.WI.build_stats.Conflict.fallback_queries;
  let q16 =
    List.find (fun q -> q.Query.name = "Q16") inst.WI.queries
  in
  let prep = Delta_eval.prepare inst.WI.db q16 in
  Alcotest.(check string) "Q16 strategy" "limited"
    (Delta_eval.strategy_name prep)

(* Directed limited-strategy cases around the truncation boundary. *)
let test_limited_boundary () =
  let reference query delta =
    let before = Qp_rel_oracle.run db query in
    let after = Qp_rel_oracle.run (Delta.apply db delta) query in
    not (Result_set.equal before after)
  in
  let q k =
    Query.make ~name:(Printf.sprintf "lim%d" k) ~from:[ "Users" ] ~limit:k
      [ Query.Field (Expr.col "name", "name") ]
  in
  let cases =
    [
      (* names sort Abe < Alice < Bob < Cathy; LIMIT 2 keeps Abe, Alice *)
      ("below cut", q 2, Delta.Cell_change
         { relation = "Users"; row = 2; col = 1; value = Value.Str "Zoe" });
      ("into cut", q 2, Delta.Cell_change
         { relation = "Users"; row = 2; col = 1; value = Value.Str "Aaron" });
      ("inside cut", q 2, Delta.Cell_change
         { relation = "Users"; row = 0; col = 1; value = Value.Str "Abel" });
      ("drop inside", q 2, Delta.Row_drop { relation = "Users"; row = 1 });
      ("drop below", q 3, Delta.Row_drop { relation = "Users"; row = 3 });
      ("limit covers all", q 10, Delta.Cell_change
         { relation = "Users"; row = 3; col = 1; value = Value.Str "Carl" });
      (* unreferenced column: age never read by the projection *)
      ("unreferenced cell", q 2, Delta.Cell_change
         { relation = "Users"; row = 0; col = 3; value = Value.Int 99 });
    ]
  in
  List.iter
    (fun (name, query, delta) ->
      List.iter
        (fun (engine, prepare) ->
          let prep = prepare db query in
          Alcotest.(check bool)
            (Printf.sprintf "%s (%s)" name engine)
            (reference query delta)
            (Delta_eval.differs prep delta))
        [ ("row", Qp_rel_oracle.prepare); ("columnar", Delta_eval.prepare) ])
    cases

(* The fallback strategy re-evaluates Q(D ⊕ δ) on the preparation's own
   enumerator, so a columnar and a row preparation of the same
   fallback-shaped query must answer every delta alike, and the
   columnar base answer must equal the row engine's full answer. *)
let test_fallback_across_engines () =
  let open Expr in
  let users_ab = [ "Users A"; "Users B" ] in
  let queries =
    [
      Query.make ~name:"self-join" ~from:users_ab
        ~where:
          (eq (col ~table:"A" "gender") (col ~table:"B" "gender")
          && Cmp (Lt, col ~table:"A" "uid", col ~table:"B" "uid"))
        [ Query.Field (col ~table:"A" "name", "a");
          Query.Field (col ~table:"B" "name", "b") ];
      Query.make ~name:"global-agg-field" ~from:[ "Users" ]
        [ Query.Field (col "gender", "g");
          Query.Aggregate (Query.Count_star, "c") ];
      Query.make ~name:"grouped-nonkey" ~from:[ "Users" ]
        ~group_by:[ col "gender" ]
        [ Query.Field (col "name", "n");
          Query.Aggregate (Query.Sum (col "age"), "s") ];
      Query.make ~name:"distinct-group" ~distinct:true
        ~from:[ "Users"; "Orders" ]
        ~where:(eq (col ~table:"Users" "uid") (col ~table:"Orders" "uid"))
        ~group_by:[ col ~table:"Users" "uid" ]
        [ Query.Aggregate (Query.Count_star, "c") ];
      Query.make ~name:"distinct-limit" ~distinct:true ~from:[ "Orders" ]
        ~where:(Cmp (Gt, col "amount", int 30))
        ~limit:2
        [ Query.Field (col "item", "item") ];
    ]
  in
  let rand = Random.State.make [| 2718 |] in
  for round = 1 to 40 do
    let database = random_db rand in
    let deltas = List.init 15 (fun _ -> random_delta rand database) in
    List.iter
      (fun query ->
        let row = Qp_rel_oracle.prepare database query in
        let col = Delta_eval.prepare database query in
        List.iter
          (fun prep ->
            Alcotest.(check string)
              (query.Query.name ^ " strategy")
              "fallback"
              (Delta_eval.strategy_name prep))
          [ row; col ];
        if
          not
            (Result_set.equal (Delta_eval.base_result col)
               (Qp_rel_oracle.run database query))
        then
          Alcotest.failf "round %d: columnar base answer of %s diverges" round
            query.Query.name;
        List.iter
          (fun delta ->
            if Delta_eval.differs row delta <> Delta_eval.differs col delta then
              Alcotest.failf "round %d: engines disagree on a delta for %s"
                round query.Query.name)
          deltas)
      queries
  done

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "col-eval",
    [
      t "columnar run matches row" test_run_matches_row;
      t "LIKE kernel matches row" test_like_kernel_matches_row;
      t "check mode records no mismatches" test_engines_agree_per_delta;
      t "workload hypergraphs engine-identical" test_workload_hypergraph_identity;
      t "skewed workload has no fallback" test_skewed_has_no_fallback;
      t "limited strategy boundary cases" test_limited_boundary;
      t "fallback agrees across engines" test_fallback_across_engines;
    ] )
