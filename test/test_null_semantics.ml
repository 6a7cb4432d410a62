(* NULL semantics at the engine boundary. The row engine's rules are
   two-valued: any comparison / BETWEEN / IN / LIKE touching NULL is
   false (so NOT over it is true), while the equi-join hash path matches
   NULL with NULL structurally. The columnar validity-bitmap path must
   reproduce every one of those rules bit-for-bit. *)

module R = Qp_relational
module Value = R.Value
module Schema = R.Schema
module Relation = R.Relation
module Database = R.Database
module Query = R.Query
module Expr = R.Expr
module Col_eval = R.Col_eval
module Delta_eval = R.Delta_eval
module Delta = R.Delta
module Result_set = R.Result_set

let people_schema =
  Schema.make ~name:"People"
    ~attrs:
      [ ("pid", Schema.T_int); ("city", Schema.T_string);
        ("score", Schema.T_int); ("tag", Schema.T_string) ]

let visits_schema =
  Schema.make ~name:"Visits"
    ~attrs:[ ("vid", Schema.T_int); ("pid", Schema.T_int) ]

let v_int = function Some i -> Value.Int i | None -> Value.Null
let v_str = function Some s -> Value.Str s | None -> Value.Null

let person pid city score tag =
  [| Value.Int pid; v_str city; v_int score; v_str tag |]

(* NULLs in every position that matters: a nullable int column, a
   nullable string column used by predicates and grouping, and a
   nullable join key on both sides. *)
let db =
  Database.make
    [
      Relation.make people_schema
        [
          person 1 (Some "Oslo") (Some 10) (Some "a");
          person 2 None (Some 20) (Some "b");
          person 3 (Some "Lima") None (Some "a");
          person 4 (Some "Oslo") (Some 30) None;
          person 5 None None None;
        ];
      Relation.make visits_schema
        [
          [| Value.Int 100; Value.Int 1 |];
          [| Value.Int 101; Value.Null |];
          [| Value.Int 102; Value.Int 3 |];
          [| Value.Int 103; Value.Null |];
          [| Value.Int 104; Value.Int 9 |];
        ];
    ]

let select_pid = [ Query.Field (Expr.col "pid", "pid") ]

let check_engines name query =
  let row = Qp_rel_oracle.run db query in
  let col = Col_eval.run db query in
  Alcotest.(check bool) (name ^ ": engines agree") true
    (Result_set.equal row col)

let pids name query expected =
  check_engines name query;
  let got =
    List.map
      (fun r -> match r.(0) with Value.Int i -> i | _ -> -1)
      (Array.to_list (Result_set.rows (Col_eval.run db query)))
  in
  Alcotest.(check (list int)) name expected (List.sort compare got)

let where name w = Query.make ~name ~from:[ "People" ] ~where:w select_pid

(* Every comparison operator over NULL cells is false — NULL rows never
   qualify, for int and string columns alike. *)
let test_comparisons () =
  let num = Expr.col "score" and s = Expr.col "city" in
  pids "int =" (where "q" Expr.(eq num (int 20))) [ 2 ];
  pids "int <>" (where "q" (Expr.Cmp (Ne, num, Expr.int 20))) [ 1; 4 ];
  pids "int <" (where "q" (Expr.Cmp (Lt, num, Expr.int 30))) [ 1; 2 ];
  pids "int <=" (where "q" (Expr.Cmp (Le, num, Expr.int 20))) [ 1; 2 ];
  pids "int >" (where "q" (Expr.Cmp (Gt, num, Expr.int 10))) [ 2; 4 ];
  pids "int >=" (where "q" (Expr.Cmp (Ge, num, Expr.int 20))) [ 2; 4 ];
  pids "str =" (where "q" Expr.(eq s (str "Oslo"))) [ 1; 4 ];
  pids "str <>" (where "q" (Expr.Cmp (Ne, s, Expr.str "Oslo"))) [ 3 ];
  pids "str <" (where "q" (Expr.Cmp (Lt, s, Expr.str "Oslo"))) [ 3 ];
  pids "str >=" (where "q" (Expr.Cmp (Ge, s, Expr.str "Lima"))) [ 1; 3; 4 ];
  (* comparison against a NULL literal is false even for non-null rows *)
  pids "= NULL" (where "q" Expr.(eq num (Const Value.Null))) [];
  pids "< NULL" (where "q" (Expr.Cmp (Lt, num, Expr.Const Value.Null))) []

let test_between_in_like () =
  let num = Expr.col "score" and s = Expr.col "city" in
  pids "between" (where "q" (Expr.Between (num, Expr.int 10, Expr.int 20)))
    [ 1; 2 ];
  pids "in int" (where "q" (Expr.In_list (num, [ Value.Int 10; Value.Int 99 ])))
    [ 1 ];
  pids "in str"
    (where "q" (Expr.In_list (s, [ Value.Str "Oslo"; Value.Str "Kyiv" ])))
    [ 1; 4 ];
  (* NULL list members match nothing, even NULL cells *)
  pids "in with NULL member"
    (where "q" (Expr.In_list (num, [ Value.Null; Value.Int 10 ])))
    [ 1 ];
  pids "like" (where "q" (Expr.Like (s, "O%"))) [ 1; 4 ];
  pids "like underscore" (where "q" (Expr.Like (s, "_im_"))) [ 3 ]

(* NOT flips the two-valued result, so NULL rows qualify under NOT. *)
let test_not () =
  let num = Expr.col "score" in
  pids "not =" (where "q" (Expr.Not Expr.(eq num (int 20)))) [ 1; 3; 4; 5 ];
  pids "not between"
    (where "q" (Expr.Not (Expr.Between (num, Expr.int 10, Expr.int 20))))
    [ 3; 4; 5 ];
  pids "not like"
    (where "q" (Expr.Not (Expr.Like (Expr.col "city", "O%"))))
    [ 2; 3; 5 ];
  pids "not or"
    (where "q"
       (Expr.Not
          Expr.(eq num (int 10) || eq (Expr.col "city") (str "Lima"))))
    [ 2; 4; 5 ]

(* Grouping keys a NULL like any other value (one NULL group); MIN/MAX
   skip NULL inputs. Both engines share the aggregation code, so this
   pins the enumeration underneath it. *)
let test_group_by_null () =
  let q =
    Query.make ~name:"g" ~from:[ "People" ] ~group_by:[ Expr.col "city" ]
      [
        Query.Field (Expr.col "city", "city");
        Query.Aggregate (Query.Count_star, "cnt");
        Query.Aggregate (Query.Min (Expr.col "score"), "lo");
        Query.Aggregate (Query.Max (Expr.col "score"), "hi");
      ]
  in
  check_engines "group by nullable" q;
  let rows = Array.to_list (Result_set.rows (Col_eval.run db q)) in
  Alcotest.(check int) "three groups incl. NULL" 3 (List.length rows);
  let null_group =
    List.find (fun r -> Value.equal r.(0) Value.Null) rows
  in
  Alcotest.(check bool) "NULL group counts its rows" true
    (Value.equal null_group.(1) (Value.Int 2));
  Alcotest.(check bool) "MIN skips NULL score" true
    (Value.equal null_group.(2) (Value.Int 20))

(* The equi-join hash path matches NULL keys structurally on both
   engines (the generated datasets keep join keys non-null; the engines
   must still agree on the quirk). *)
let test_null_equi_probe () =
  let q =
    Query.make ~name:"j" ~from:[ "People"; "Visits" ]
      ~where:
        Expr.(eq (col ~table:"People" "pid") (col ~table:"Visits" "pid"))
      [
        Query.Field (Expr.col "vid", "vid");
        Query.Field (Expr.col "city", "city");
      ]
  in
  check_engines "equi join over nullable key" q;
  Alcotest.(check int) "matched visits" 2
    (Array.length (Result_set.rows (Col_eval.run db q)));
  (* and with NULLs on the build side too *)
  let nullable_people =
    Database.make
      [
        Relation.make people_schema
          [ person 1 (Some "Oslo") (Some 10) (Some "a");
            person 2 None (Some 20) None ];
        Relation.make visits_schema
          [ [| Value.Int 100; Value.Int 1 |]; [| Value.Int 101; Value.Null |] ];
      ]
  in
  let row = Qp_rel_oracle.run nullable_people q in
  let col = Col_eval.run nullable_people q in
  Alcotest.(check bool) "engines agree with build-side NULL key" true
    (Result_set.equal row col)

(* Deltas that write or overwrite NULLs: differs must agree with a full
   re-evaluation on every engine. *)
let test_null_deltas () =
  let reference query delta =
    let before = Col_eval.run db query in
    let after = Col_eval.run (Delta.apply db delta) query in
    not (Result_set.equal before after)
  in
  let queries =
    [
      where "w" (Expr.Cmp (Ge, Expr.col "score", Expr.int 15));
      where "n" (Expr.Not Expr.(eq (col "city") (str "Oslo")));
      Query.make ~name:"grp" ~from:[ "People" ] ~group_by:[ Expr.col "city" ]
        [
          Query.Field (Expr.col "city", "city");
          Query.Aggregate (Query.Count_star, "cnt");
        ];
    ]
  in
  let deltas =
    [
      Delta.Cell_change
        { relation = "People"; row = 0; col = 2; value = Value.Null };
      Delta.Cell_change
        { relation = "People"; row = 2; col = 2; value = Value.Int 15 };
      Delta.Cell_change
        { relation = "People"; row = 1; col = 1; value = Value.Str "Oslo" };
      Delta.Cell_change
        { relation = "People"; row = 3; col = 1; value = Value.Null };
      Delta.Row_drop { relation = "People"; row = 4 };
    ]
  in
  List.iter
    (fun q ->
      List.iter
        (fun (engine, prepare) ->
          let prep = prepare db q in
          List.iter
            (fun d ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s" q.Query.name engine)
                (reference q d) (Delta_eval.differs prep d))
            deltas)
        [ ("row", Qp_rel_oracle.prepare); ("columnar", Delta_eval.prepare) ])
    queries

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "null-semantics",
    [
      t "comparison operators" test_comparisons;
      t "BETWEEN / IN / LIKE" test_between_in_like;
      t "NOT over NULL" test_not;
      t "GROUP BY nullable column" test_group_by_null;
      t "NULL equi-probe parity" test_null_equi_probe;
      t "deltas writing NULLs" test_null_deltas;
    ] )
