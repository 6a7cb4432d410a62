(* Tests for the incremental evaluator. The central property: for every
   (database, query, delta), [Delta_eval.differs] agrees with a full
   re-evaluation. The random generators are tuned so that roughly half
   the deltas do change the answer. *)

open Fixtures
module Delta_eval = Qp_relational.Delta_eval
module Delta = Qp_relational.Delta
module Result_set = Qp_relational.Result_set

let reference_differs database query delta =
  let before = Qp_rel_oracle.run database query in
  let after = Qp_rel_oracle.run (Delta.apply database delta) query in
  not (Result_set.equal before after)

let field e = Query.Field (e, Expr.to_sql e)

let check_strategy expected query =
  let prep = Delta_eval.prepare db query in
  Alcotest.(check string) ("strategy of " ^ query.Query.name) expected
    (Delta_eval.strategy_name prep)

let test_strategy_selection () =
  check_strategy "rowwise"
    (Query.make ~name:"plain" ~from:[ "Users" ] [ field (Expr.col "name") ]);
  check_strategy "rowwise-distinct"
    (Query.make ~name:"dist" ~distinct:true ~from:[ "Users" ]
       [ field (Expr.col "gender") ]);
  check_strategy "grouped"
    (Query.make ~name:"agg" ~from:[ "Users" ]
       [ Query.Aggregate (Query.Count_star, "c") ]);
  check_strategy "grouped"
    (Query.make ~name:"grp" ~from:[ "Users" ] ~group_by:[ Expr.col "gender" ]
       [ Query.Field (Expr.col "gender", "g");
         Query.Aggregate (Query.Count_star, "c") ]);
  check_strategy "limited"
    (Query.make ~name:"lim" ~from:[ "Users" ] ~limit:1 [ field (Expr.col "name") ]);
  check_strategy "fallback"
    (Query.make ~name:"dlim" ~distinct:true ~from:[ "Users" ] ~limit:1
       [ field (Expr.col "gender") ]);
  check_strategy "fallback"
    (Query.make ~name:"self" ~from:[ "Users A"; "Users B" ]
       ~where:Expr.(eq (col ~table:"A" "uid") (col ~table:"B" "uid"))
       [ Query.Field (Expr.col ~table:"A" "name", "n") ]);
  (* global aggregate selecting a plain field cannot use the grouped
     strategy *)
  check_strategy "fallback"
    (Query.make ~name:"mixed" ~from:[ "Users" ]
       [ Query.Field (Expr.col "gender", "g");
         Query.Aggregate (Query.Count_star, "c") ]);
  (* grouped query selecting a non-key field *)
  check_strategy "fallback"
    (Query.make ~name:"nonkey" ~from:[ "Users" ] ~group_by:[ Expr.col "gender" ]
       [ Query.Field (Expr.col "name", "n");
         Query.Aggregate (Query.Count_star, "c") ])

let check_case name query delta =
  let prep = Delta_eval.prepare db query in
  Alcotest.(check bool) name
    (reference_differs db query delta)
    (Delta_eval.differs prep delta)

let cell relation row col value =
  Delta.Cell_change { relation; row; col; value }

let test_irrelevant_table () =
  let query =
    Query.make ~name:"users-only" ~from:[ "Users" ] [ field (Expr.col "name") ]
  in
  let prep = Delta_eval.prepare db query in
  Alcotest.(check bool) "orders delta ignored" false
    (Delta_eval.differs prep (cell "Orders" 0 2 (Value.Int 9999)))

let test_rowwise_cases () =
  let names_of_f =
    Query.make ~name:"f" ~from:[ "Users" ]
      ~where:Expr.(eq (col "gender") (str "f"))
      [ field (Expr.col "name") ]
  in
  (* flip Alice out of the selection *)
  check_case "leaves selection" names_of_f (cell "Users" 1 2 (Value.Str "m"));
  (* change an unprojected, unfiltered column: no conflict *)
  check_case "invisible change" names_of_f (cell "Users" 1 3 (Value.Int 99));
  (* change a projected value *)
  check_case "projected change" names_of_f (cell "Users" 1 1 (Value.Str "Alicia"));
  (* drop a selected row / an unselected row *)
  check_case "drop selected" names_of_f (Delta.Row_drop { relation = "Users"; row = 1 });
  check_case "drop unselected" names_of_f (Delta.Row_drop { relation = "Users"; row = 0 })

let test_distinct_cases () =
  let genders =
    Query.make ~name:"g" ~distinct:true ~from:[ "Users" ]
      [ field (Expr.col "gender") ]
  in
  (* m -> f keeps the answer set {m, f} *)
  check_case "multiplicity only" genders (cell "Users" 0 2 (Value.Str "f"));
  (* introducing a new distinct value *)
  check_case "new value" genders (cell "Users" 0 2 (Value.Str "x"));
  (* dropping one of two 'm' rows keeps the set *)
  check_case "drop one of two" genders (Delta.Row_drop { relation = "Users"; row = 0 })

let test_grouped_cases () =
  let by_gender =
    Query.make ~name:"bg" ~from:[ "Users" ] ~group_by:[ Expr.col "gender" ]
      [ Query.Field (Expr.col "gender", "g");
        Query.Aggregate (Query.Count_star, "cnt");
        Query.Aggregate (Query.Max (Expr.col "age"), "max");
        Query.Aggregate (Query.Min (Expr.col "age"), "min");
        Query.Aggregate (Query.Avg (Expr.col "age"), "avg") ]
  in
  (* move Bob (max of m) to a different age: max must be rescanned *)
  check_case "max removal rescan" by_gender (cell "Users" 2 3 (Value.Int 10));
  (* change a non-extreme age: avg changes *)
  check_case "avg change" by_gender (cell "Users" 0 3 (Value.Int 19));
  (* group migration m -> f *)
  check_case "group migration" by_gender (cell "Users" 0 2 (Value.Str "f"));
  (* group creation *)
  check_case "group creation" by_gender (cell "Users" 0 2 (Value.Str "nb"));
  (* group destruction: drop one of two f rows doesn't destroy; change
     both... single delta can't, but dropping a unique group member
     after a migration would. Use a migration that empties m. *)
  let single_m =
    Database.make
      [
        Relation.make users_schema [ user 1 "A" "m" 18; user 2 "B" "f" 20 ];
        Database.relation db "Orders";
      ]
  in
  let prep = Delta_eval.prepare single_m by_gender in
  let d = cell "Users" 0 2 (Value.Str "f") in
  Alcotest.(check bool) "group destroyed"
    (reference_differs single_m by_gender d)
    (Delta_eval.differs prep d)

let test_global_aggregate_cases () =
  let totals =
    Query.make ~name:"tot" ~from:[ "Orders" ]
      ~where:Expr.(eq (col "item") (str "book"))
      [ Query.Aggregate (Query.Sum (Expr.col "amount"), "sum");
        Query.Aggregate (Query.Count_star, "cnt") ]
  in
  check_case "sum changes" totals (cell "Orders" 0 2 (Value.Int 500));
  check_case "row leaves filter" totals (cell "Orders" 0 3 (Value.Str "desk"));
  check_case "irrelevant row changes" totals (cell "Orders" 3 2 (Value.Int 1));
  (* empty the result entirely *)
  let only_one_book =
    Database.make
      [
        Database.relation db "Users";
        Relation.make orders_schema [ order 10 1 100 "book" ];
      ]
  in
  let prep = Delta_eval.prepare only_one_book totals in
  let d = cell "Orders" 0 3 (Value.Str "desk") in
  Alcotest.(check bool) "global empties"
    (reference_differs only_one_book totals d)
    (Delta_eval.differs prep d)

let test_join_cases () =
  let join =
    Query.make ~name:"j" ~from:[ "Users"; "Orders" ]
      ~where:
        Expr.(
          eq (col ~table:"Users" "uid") (col ~table:"Orders" "uid")
          && Cmp (Ge, col "amount", int 70))
      [ field (Expr.col "name"); field (Expr.col "amount") ]
  in
  (* re-point an order at another user *)
  check_case "rewire fk" join (cell "Orders" 0 1 (Value.Int 4));
  (* change a user name that appears in the output *)
  check_case "dim attribute" join (cell "Users" 0 1 (Value.Str "Abraham"));
  (* change an amount across the filter threshold *)
  check_case "fact filter flip" join (cell "Orders" 3 2 (Value.Int 30));
  (* drop a joined user *)
  check_case "drop user" join (Delta.Row_drop { relation = "Users"; row = 0 })

let test_base_result_matches_eval () =
  let query =
    Query.make ~name:"b" ~from:[ "Users" ] ~group_by:[ Expr.col "gender" ]
      [ Query.Field (Expr.col "gender", "g");
        Query.Aggregate (Query.Avg (Expr.col "age"), "avg") ]
  in
  let prep = Delta_eval.prepare db query in
  Alcotest.(check bool) "base = eval" true
    (Result_set.equal (Delta_eval.base_result prep) (Qp_rel_oracle.run db query))

(* The big property: 120 random databases x 8 queries x 10 deltas. *)
let test_differs_matches_reference () =
  let rand = Random.State.make [| 77 |] in
  let mismatches = ref [] in
  let strategies = Hashtbl.create 4 in
  for round = 1 to 120 do
    let database = random_db rand in
    for qi = 1 to 8 do
      let query = random_query rand ((round * 10) + qi) in
      let prep = Delta_eval.prepare database query in
      let s = Delta_eval.strategy_name prep in
      Hashtbl.replace strategies s (1 + Option.value (Hashtbl.find_opt strategies s) ~default:0);
      for _ = 1 to 10 do
        let delta = random_delta rand database in
        let fast = Delta_eval.differs prep delta in
        let slow = reference_differs database query delta in
        if fast <> slow then
          mismatches :=
            Printf.sprintf "round %d %s [%s] delta %s: fast=%b slow=%b" round
              (Query.to_sql query) s
              (Format.asprintf "%a" Delta.pp delta)
              fast slow
            :: !mismatches
      done
    done
  done;
  (match !mismatches with
  | [] -> ()
  | first :: _ ->
      Alcotest.failf "%d mismatches; first: %s" (List.length !mismatches) first);
  (* Make sure the property exercised every strategy. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) ("strategy covered: " ^ s) true
        (Hashtbl.mem strategies s))
    [ "rowwise"; "rowwise-distinct"; "grouped"; "limited"; "fallback" ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "delta-eval",
    [
      t "strategy selection" test_strategy_selection;
      t "irrelevant table short-circuits" test_irrelevant_table;
      t "rowwise cases" test_rowwise_cases;
      t "distinct cases" test_distinct_cases;
      t "grouped cases" test_grouped_cases;
      t "global aggregate cases" test_global_aggregate_cases;
      t "join cases" test_join_cases;
      t "base result matches eval" test_base_result_matches_eval;
      Alcotest.test_case "differs == full reeval (9600 random cases)" `Slow
        test_differs_matches_reference;
    ] )
