(* Tests for the SQL parser: the paper's Table 7 queries verbatim,
   round-trips against hand-built ASTs, and error reporting. *)

open Fixtures
module Sql = Qp_relational.Sql
module Col_eval = Qp_relational.Col_eval
module Result_set = Qp_relational.Result_set

let parse sql = Sql.parse_exn ~db sql

let check_same_answer msg sql built =
  Alcotest.(check bool) msg true
    (Result_set.equal (Col_eval.run db (parse sql)) (Col_eval.run db built))

let field ?name e =
  Query.Field (e, match name with Some n -> n | None -> Expr.to_sql e)

let test_simple_select () =
  check_same_answer "projection + filter"
    "select name from Users where gender = 'f'"
    (Query.make ~name:"t" ~from:[ "Users" ]
       ~where:Expr.(eq (col "gender") (str "f"))
       [ field (Expr.col "name") ])

let test_star () =
  let q = parse "select * from Users" in
  Alcotest.(check int) "4 columns" 4 (List.length q.Query.select);
  Alcotest.(check int) "4 rows" 4 (Result_set.row_count (Col_eval.run db q))

let test_keywords_any_case () =
  let q = parse "SeLeCt NAME FrOm users WHERE Gender = 'm'" in
  Alcotest.(check int) "2 rows" 2 (Result_set.row_count (Col_eval.run db q))

let test_aggregates () =
  check_same_answer "aggregate row"
    "select count(*), sum(age), avg(age), min(age), max(age) from Users"
    (Query.make ~name:"t" ~from:[ "Users" ]
       [
         Query.Aggregate (Query.Count_star, "a");
         Query.Aggregate (Query.Sum (Expr.col "age"), "b");
         Query.Aggregate (Query.Avg (Expr.col "age"), "c");
         Query.Aggregate (Query.Min (Expr.col "age"), "d");
         Query.Aggregate (Query.Max (Expr.col "age"), "e");
       ])

let test_count_distinct () =
  check_same_answer "count distinct"
    "select count(distinct gender) from Users"
    (Query.make ~name:"t" ~from:[ "Users" ]
       [ Query.Aggregate (Query.Count_distinct (Expr.col "gender"), "x") ])

let test_group_by () =
  check_same_answer "group by"
    "select gender, count(*) from Users group by gender"
    (Query.make ~name:"t" ~from:[ "Users" ] ~group_by:[ Expr.col "gender" ]
       [ field (Expr.col "gender"); Query.Aggregate (Query.Count_star, "c") ])

let test_join_with_aliases () =
  check_same_answer "join"
    "select U.name, O.amount from Users U, Orders O \
     where U.uid = O.uid and O.amount >= 70"
    (Query.make ~name:"t" ~from:[ "Users U"; "Orders O" ]
       ~where:
         Expr.(
           eq (col ~table:"U" "uid") (col ~table:"O" "uid")
           && Cmp (Ge, col ~table:"O" "amount", int 70))
       [ field (Expr.col ~table:"U" "name"); field (Expr.col ~table:"O" "amount") ])

let test_between_in_like_not () =
  check_same_answer "between"
    "select name from Users where age between 19 and 23"
    (Query.make ~name:"t" ~from:[ "Users" ]
       ~where:(Expr.Between (Expr.col "age", Expr.int 19, Expr.int 23))
       [ field (Expr.col "name") ]);
  check_same_answer "in list"
    "select name from Users where age in (18, 25)"
    (Query.make ~name:"t" ~from:[ "Users" ]
       ~where:(Expr.In_list (Expr.col "age", [ Value.Int 18; Value.Int 25 ]))
       [ field (Expr.col "name") ]);
  check_same_answer "like"
    "select name from Users where name like 'A%'"
    (Query.make ~name:"t" ~from:[ "Users" ]
       ~where:(Expr.Like (Expr.col "name", "A%"))
       [ field (Expr.col "name") ]);
  check_same_answer "not like"
    "select name from Users where name not like 'A%'"
    (Query.make ~name:"t" ~from:[ "Users" ]
       ~where:(Expr.Not (Expr.Like (Expr.col "name", "A%")))
       [ field (Expr.col "name") ])

let test_boolean_precedence () =
  (* OR binds looser than AND *)
  check_same_answer "and/or"
    "select name from Users where gender = 'm' and age < 20 or gender = 'f' \
     and age > 21"
    (Query.make ~name:"t" ~from:[ "Users" ]
       ~where:
         Expr.(
           eq (col "gender") (str "m")
           && Cmp (Lt, col "age", int 20)
           || (eq (col "gender") (str "f") && Cmp (Gt, col "age", int 21)))
       [ field (Expr.col "name") ])

let test_arith_precedence () =
  check_same_answer "mul before add"
    "select age + age * 2 from Users where uid = 1"
    (Query.make ~name:"t" ~from:[ "Users" ]
       ~where:Expr.(eq (col "uid") (int 1))
       [ field Expr.(col "age" + (col "age" * int 2)) ])

let test_distinct_limit () =
  let q = parse "select distinct gender from Users" in
  Alcotest.(check bool) "distinct flag" true q.Query.distinct;
  let q = parse "select uid from Users limit 2" in
  Alcotest.(check (option int)) "limit" (Some 2) q.Query.limit;
  Alcotest.(check int) "2 rows" 2 (Result_set.row_count (Col_eval.run db q))

let test_string_escape () =
  let q = parse "select name from Users where name = 'O''Brien'" in
  Alcotest.(check int) "0 rows" 0 (Result_set.row_count (Col_eval.run db q))

let test_paper_queries_parse () =
  (* Table 7 templates, pasted as printed (over the world schema). *)
  let rng = Qp_util.Rng.create 50 in
  let world =
    Qp_workloads.World.generate ~rng ~config:Qp_workloads.World.tiny_config ()
  in
  List.iter
    (fun sql ->
      match Sql.parse ~db:world sql with
      | Ok q -> ignore (Col_eval.run world q)
      | Error msg -> Alcotest.failf "%S: %s" sql msg)
    [
      "select count(Name) from Country where Continent = 'Asia'";
      "select count(distinct Continent) from Country";
      "select avg(Population) from Country";
      "select Region, max(SurfaceArea) from Country group by Region";
      "select * from Country";
      "select Name from Country where Name like 'A%'";
      "select * from Country where Continent='Europe' and Population > 5000000";
      "select Name from Country where Population between 10000000 and 20000000";
      "select * from Country where Continent='Europe' limit 2";
      "select distinct Language from CountryLanguage where CountryCode='USA'";
      "select Language, count(CountryCode) from CountryLanguage group by Language";
      "select CountryCode, sum(Population) from City group by CountryCode";
      "select distinct 1 from City where CountryCode = 'USA' and Population > 10000000";
      "select Name from Country, CountryLanguage where Code = CountryCode and Language = 'Greek'";
      "select C.Name from Country C, CountryLanguage L where C.Code = \
       L.CountryCode and L.Language = 'English' and L.Percentage >= 50";
      "select T.district from Country C, City T where C.code = 'USA' and \
       C.capital = T.id";
    ]

let test_errors () =
  let expect_error sql fragment =
    match Sql.parse ~db sql with
    | Ok _ -> Alcotest.failf "%S should not parse" sql
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S error mentions %s (got: %s)" sql fragment msg)
          true
          (Astring_contains.contains (String.lowercase_ascii msg)
             (String.lowercase_ascii fragment))
  in
  expect_error "selec name from Users" "select";
  expect_error "select from Users" "expression";
  expect_error "select name Users" "from";
  expect_error "select name from Users where" "expression";
  expect_error "select name from Users where name = 'x" "unterminated";
  expect_error "select name from Users limit x" "integer";
  (* "Users extra" is a table alias, so trailing junk must come later *)
  expect_error "select name from Users where uid = 1 'junk'" "unexpected";
  expect_error "select sum(distinct age) from Users" "count";
  expect_error "select name from Nope" "unknown table"

(* Printer/parser agreement: for random queries over the fixture
   schemas, Query.to_sql output must re-parse to a query with the same
   answer. *)
let test_roundtrip_property () =
  let rand = Random.State.make [| 2718 |] in
  for round = 1 to 300 do
    let database = random_db rand in
    let q = random_query rand round in
    let sql = Query.to_sql q in
    match Sql.parse ~db:database sql with
    | Error msg -> Alcotest.failf "printed query does not re-parse: %S: %s" sql msg
    | Ok q' ->
        if
          not
            (Result_set.equal (Col_eval.run database q) (Col_eval.run database q'))
        then
          Alcotest.failf "roundtrip changed the answer: %S" sql
  done

let test_as_aliases () =
  let q = parse "select name as who, age as years from Users" in
  let names =
    List.map
      (function Query.Field (_, n) | Query.Aggregate (_, n) -> n)
      q.Query.select
  in
  Alcotest.(check (list string)) "aliases" [ "who"; "years" ] names

(* Parsing compiles the query, so an unknown column or a SUM/AVG over a
   string is a parse error, not an exception from the evaluator later. *)
let test_compile_errors () =
  let expect_error sql fragment =
    match Sql.parse ~db sql with
    | Ok _ -> Alcotest.failf "%S should not parse" sql
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S error mentions %s (got: %s)" sql fragment msg)
          true
          (Astring_contains.contains (String.lowercase_ascii msg)
             (String.lowercase_ascii fragment))
  in
  expect_error "select foo from Users" "unresolved column foo";
  expect_error "select name from Users where bogus > 1" "unresolved column bogus";
  expect_error "select sum(name) from Users" "SUM/AVG";
  expect_error "select gender, avg(gender) from Users group by gender" "SUM/AVG";
  expect_error "select sum('x') from Users" "SUM/AVG";
  (* MIN/MAX/COUNT over strings stay well-typed *)
  List.iter
    (fun sql ->
      match Sql.parse ~db sql with
      | Ok q -> ignore (Col_eval.run db q)
      | Error msg -> Alcotest.failf "%S: %s" sql msg)
    [
      "select min(name), max(gender), count(distinct name) from Users";
      "select sum(age), avg(uid + age) from Users";
    ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "sql",
    [
      t "simple select" test_simple_select;
      t "select star" test_star;
      t "keywords any case" test_keywords_any_case;
      t "aggregates" test_aggregates;
      t "count distinct" test_count_distinct;
      t "group by" test_group_by;
      t "join with aliases" test_join_with_aliases;
      t "between / in / like / not like" test_between_in_like_not;
      t "boolean precedence" test_boolean_precedence;
      t "arithmetic precedence" test_arith_precedence;
      t "distinct and limit" test_distinct_limit;
      t "string escaping" test_string_escape;
      t "paper's Table 7 queries parse and run" test_paper_queries_parse;
      t "error reporting" test_errors;
      t "to_sql/parse roundtrip (300 random queries)" test_roundtrip_property;
      t "AS aliases" test_as_aliases;
      t "unknown columns and ill-typed aggregates" test_compile_errors;
    ] )
