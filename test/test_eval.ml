(* Tests for expression compilation and full query evaluation, using
   the paper's running-example data (Fixtures.db). *)

open Fixtures
module Result_set = Qp_relational.Result_set
module Col_eval = Qp_relational.Col_eval

let field ?name e =
  Query.Field (e, match name with Some n -> n | None -> Expr.to_sql e)

let q ?distinct ?where ?group_by ?limit ~from select =
  Query.make ~name:"t" ?distinct ?where ?group_by ?limit ~from select

let check_rows msg expected actual_q =
  let actual =
    Array.to_list (rows actual_q) |> List.map Array.to_list
  in
  let expected = List.map (List.map (fun v -> v)) expected in
  Alcotest.(check int) (msg ^ " row count") (List.length expected)
    (List.length actual);
  List.iter2
    (fun e a ->
      List.iter2
        (fun ev av ->
          Alcotest.(check bool)
            (msg ^ ": " ^ Value.to_string ev ^ " = " ^ Value.to_string av)
            true (Value.equal ev av))
        e a)
    expected actual

let i x = Value.Int x
let s x = Value.Str x

let test_projection_filter () =
  check_rows "female names"
    [ [ s "Alice" ]; [ s "Cathy" ] ]
    (q ~from:[ "Users" ]
       ~where:Expr.(eq (col "gender") (str "f"))
       [ field (Expr.col "name") ])

let test_comparisons () =
  check_rows "age >= 22"
    [ [ s "Bob" ]; [ s "Cathy" ] ]
    (q ~from:[ "Users" ]
       ~where:(Expr.Cmp (Expr.Ge, Expr.col "age", Expr.int 22))
       [ field (Expr.col "name") ]);
  check_rows "age <> 20"
    [ [ s "Abe" ]; [ s "Bob" ]; [ s "Cathy" ] ]
    (q ~from:[ "Users" ]
       ~where:(Expr.Cmp (Expr.Ne, Expr.col "age", Expr.int 20))
       [ field (Expr.col "name") ])

let test_between_in_like () =
  check_rows "between"
    [ [ s "Alice" ]; [ s "Cathy" ] ]
    (q ~from:[ "Users" ]
       ~where:(Expr.Between (Expr.col "age", Expr.int 19, Expr.int 23))
       [ field (Expr.col "name") ]);
  check_rows "in list"
    [ [ s "Abe" ]; [ s "Bob" ] ]
    (q ~from:[ "Users" ]
       ~where:(Expr.In_list (Expr.col "age", [ i 18; i 25; i 99 ]))
       [ field (Expr.col "name") ]);
  check_rows "like"
    [ [ s "Abe" ]; [ s "Alice" ] ]
    (q ~from:[ "Users" ]
       ~where:(Expr.Like (Expr.col "name", "A%"))
       [ field (Expr.col "name") ])

let test_bool_ops () =
  check_rows "and/or/not"
    [ [ s "Abe" ]; [ s "Cathy" ] ]
    (q ~from:[ "Users" ]
       ~where:
         Expr.(
           eq (col "gender") (str "m")
           && Cmp (Lt, col "age", int 20)
           || (Not (eq (col "gender") (str "m")) && Cmp (Gt, col "age", int 21)))
       [ field (Expr.col "name") ])

let test_arith () =
  check_rows "age * 2 - 1"
    [ [ i 35 ] ]
    (q ~from:[ "Users" ]
       ~where:Expr.(eq (col "name") (str "Abe"))
       [ field Expr.(col "age" * int 2 - int 1) ])

let test_global_aggregates () =
  check_rows "aggregate row"
    [ [ i 4; i 85; Value.ratio 85 4; i 18; i 25 ] ]
    (q ~from:[ "Users" ]
       [
         Query.Aggregate (Query.Count_star, "cnt");
         Query.Aggregate (Query.Sum (Expr.col "age"), "sum");
         Query.Aggregate (Query.Avg (Expr.col "age"), "avg");
         Query.Aggregate (Query.Min (Expr.col "age"), "min");
         Query.Aggregate (Query.Max (Expr.col "age"), "max");
       ])

let test_empty_aggregate () =
  check_rows "empty input semantics"
    [ [ i 0; Value.Null; Value.Null ] ]
    (q ~from:[ "Users" ]
       ~where:Expr.(eq (col "gender") (str "x"))
       [
         Query.Aggregate (Query.Count_star, "cnt");
         Query.Aggregate (Query.Sum (Expr.col "age"), "sum");
         Query.Aggregate (Query.Min (Expr.col "age"), "min");
       ])

let test_count_nonnull_vs_star () =
  let with_null =
    Database.make
      [
        Relation.make users_schema
          [ user 1 "A" "m" 18;
            [| Value.Int 2; Value.Str "B"; Value.Str "f"; Value.Null |] ];
      ]
  in
  let res =
    Col_eval.run with_null
      (q ~from:[ "Users" ]
         [
           Query.Aggregate (Query.Count_star, "star");
           Query.Aggregate (Query.Count (Expr.col "age"), "nonnull");
         ])
  in
  Alcotest.(check bool) "star=2 nonnull=1" true
    (Value.equal (Result_set.rows res).(0).(0) (i 2)
    && Value.equal (Result_set.rows res).(0).(1) (i 1))

let test_group_by () =
  check_rows "by gender"
    [ [ s "f"; i 2; i 22 ]; [ s "m"; i 2; i 25 ] ]
    (q ~from:[ "Users" ]
       ~group_by:[ Expr.col "gender" ]
       [
         field (Expr.col "gender");
         Query.Aggregate (Query.Count_star, "cnt");
         Query.Aggregate (Query.Max (Expr.col "age"), "max");
       ])

let test_group_by_empty_result () =
  check_rows "no groups" []
    (q ~from:[ "Users" ]
       ~where:Expr.(eq (col "gender") (str "x"))
       ~group_by:[ Expr.col "gender" ]
       [ field (Expr.col "gender"); Query.Aggregate (Query.Count_star, "c") ])

let test_count_distinct () =
  check_rows "distinct buyers of book"
    [ [ i 3 ] ]
    (q ~from:[ "Orders" ]
       ~where:Expr.(eq (col "item") (str "book"))
       [ Query.Aggregate (Query.Count_distinct (Expr.col "uid"), "buyers") ])

let test_distinct () =
  check_rows "distinct genders"
    [ [ s "f" ]; [ s "m" ] ]
    (q ~distinct:true ~from:[ "Users" ] [ field (Expr.col "gender") ])

let test_limit_deterministic () =
  check_rows "first two sorted"
    [ [ i 1; s "Abe" ]; [ i 2; s "Alice" ] ]
    (q ~from:[ "Users" ] ~limit:2
       [ field (Expr.col "uid"); field (Expr.col "name") ]);
  check_rows "limit 0" []
    (q ~from:[ "Users" ] ~limit:0 [ field (Expr.col "uid") ])

let test_join () =
  check_rows "spenders over 70"
    [ [ s "Abe"; i 100 ]; [ s "Alice"; i 250 ]; [ s "Bob"; i 75 ] ]
    (q
       ~from:[ "Users"; "Orders" ]
       ~where:
         Expr.(
           eq (col ~table:"Users" "uid") (col ~table:"Orders" "uid")
           && Cmp (Ge, col "amount", int 70))
       [ field (Expr.col "name"); field (Expr.col "amount") ])

let test_join_aliases () =
  check_rows "aliased join"
    [ [ s "Alice" ]; [ s "Alice" ] ]
    (q
       ~from:[ "Users U"; "Orders O" ]
       ~where:
         Expr.(
           eq (col ~table:"U" "uid") (col ~table:"O" "uid")
           && eq (col ~table:"U" "name") (str "Alice"))
       [ field (Expr.col ~table:"U" "name") ])

let test_join_group () =
  check_rows "spend by gender"
    [ [ s "f"; i 350 ]; [ s "m"; i 175 ] ]
    (q
       ~from:[ "Users"; "Orders" ]
       ~where:Expr.(eq (col ~table:"Users" "uid") (col ~table:"Orders" "uid"))
       ~group_by:[ Expr.col "gender" ]
       [
         field (Expr.col "gender");
         Query.Aggregate (Query.Sum (Expr.col "amount"), "spend");
       ])

let test_star_expansion () =
  let base = q ~from:[ "Users" ] [ field (Expr.int 1) ] in
  let expanded = Query.star db base in
  Alcotest.(check int) "4 fields" 4 (List.length expanded)

let test_unresolved_column () =
  match run (q ~from:[ "Users" ] [ field (Expr.col "nope") ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected unresolved column"

let test_ambiguous_column () =
  match
    run
      (q ~from:[ "Users"; "Orders" ]
         [ field (Expr.col "uid") ])
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected ambiguity error"

let test_unknown_table () =
  match run (q ~from:[ "Nope" ] [ field (Expr.int 1) ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected unknown table"

let test_null_comparison_false () =
  let with_null =
    Database.make
      [
        Relation.make users_schema
          [ [| Value.Int 1; Value.Str "A"; Value.Str "m"; Value.Null |] ];
      ]
  in
  let res =
    Col_eval.run with_null
      (q ~from:[ "Users" ]
         ~where:(Expr.Cmp (Expr.Le, Expr.col "age", Expr.int 100))
         [ field (Expr.col "name") ])
  in
  Alcotest.(check int) "null filtered out" 0 (Result_set.row_count res)

let test_result_set_semantics () =
  let a =
    Result_set.make ~header:[| "x" |] [| [| i 2 |]; [| i 1 |] |]
  in
  let b =
    Result_set.make ~header:[| "x" |] [| [| i 1 |]; [| i 2 |] |]
  in
  Alcotest.(check bool) "order-insensitive equality" true (Result_set.equal a b);
  Alcotest.(check int) "hash equal" (Result_set.hash a) (Result_set.hash b);
  let c = Result_set.make ~header:[| "x" |] [| [| i 1 |] |] in
  Alcotest.(check bool) "different" false (Result_set.equal a c)

let test_to_sql_roundtrip_text () =
  let sql =
    Query.to_sql
      (q ~distinct:true
         ~from:[ "Users" ]
         ~where:Expr.(eq (col "gender") (str "f"))
         ~limit:2
         [ field (Expr.col "name") ])
  in
  Alcotest.(check string) "sql"
    "SELECT DISTINCT name FROM Users WHERE gender = 'f' LIMIT 2" sql

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "eval",
    [
      t "projection + filter" test_projection_filter;
      t "comparison operators" test_comparisons;
      t "between / in / like" test_between_in_like;
      t "boolean operators" test_bool_ops;
      t "arithmetic expressions" test_arith;
      t "global aggregates (exact avg)" test_global_aggregates;
      t "aggregate over empty input" test_empty_aggregate;
      t "count(*) vs count(col) with nulls" test_count_nonnull_vs_star;
      t "group by" test_group_by;
      t "group by with empty input" test_group_by_empty_result;
      t "count distinct" test_count_distinct;
      t "distinct" test_distinct;
      t "limit is deterministic" test_limit_deterministic;
      t "hash join" test_join;
      t "join with aliases" test_join_aliases;
      t "join + group by" test_join_group;
      t "select-star expansion" test_star_expansion;
      t "unresolved column" test_unresolved_column;
      t "ambiguous column" test_ambiguous_column;
      t "unknown table" test_unknown_table;
      t "null comparisons are false" test_null_comparison_false;
      t "result-set multiset semantics" test_result_set_semantics;
      t "query printing" test_to_sql_roundtrip_text;
    ] )
