(* Shared fixtures and random generators for the relational tests. *)

module R = Qp_relational
module Value = R.Value
module Schema = R.Schema
module Relation = R.Relation
module Database = R.Database
module Query = R.Query
module Expr = R.Expr

let users_schema =
  Schema.make ~name:"Users"
    ~attrs:
      [ ("uid", Schema.T_int); ("name", Schema.T_string);
        ("gender", Schema.T_string); ("age", Schema.T_int) ]

let orders_schema =
  Schema.make ~name:"Orders"
    ~attrs:
      [ ("oid", Schema.T_int); ("uid", Schema.T_int);
        ("amount", Schema.T_int); ("item", Schema.T_string) ]

let user uid name gender age =
  [| Value.Int uid; Value.Str name; Value.Str gender; Value.Int age |]

let order oid uid amount item =
  [| Value.Int oid; Value.Int uid; Value.Int amount; Value.Str item |]

(* The paper's running-example relation (Figure 1) plus an Orders table
   for join coverage. *)
let db =
  Database.make
    [
      Relation.make users_schema
        [ user 1 "Abe" "m" 18; user 2 "Alice" "f" 20; user 3 "Bob" "m" 25;
          user 4 "Cathy" "f" 22 ];
      Relation.make orders_schema
        [ order 10 1 100 "book"; order 11 2 250 "phone"; order 12 2 40 "book";
          order 13 3 75 "desk"; order 14 4 60 "book" ];
    ]

let run q = R.Col_eval.run db q
let rows q = R.Result_set.rows (run q)

(* --- random database / query / delta generators ----------------------- *)

(* A small random two-table database over fixed schemas with narrow
   value domains, so that deltas frequently collide with query
   predicates — the interesting regime for the delta evaluator. *)
let random_db rand =
  let gen_user i =
    user (i + 1)
      (Printf.sprintf "n%d" (Random.State.int rand 5))
      (if Random.State.bool rand then "m" else "f")
      (15 + Random.State.int rand 8)
  in
  let gen_order i =
    order (i + 10)
      (1 + Random.State.int rand 6)
      (10 * (1 + Random.State.int rand 9))
      (Printf.sprintf "i%d" (Random.State.int rand 4))
  in
  let n_users = 2 + Random.State.int rand 6 in
  let n_orders = 2 + Random.State.int rand 8 in
  Database.make
    [
      Relation.make users_schema (List.init n_users gen_user);
      Relation.make orders_schema (List.init n_orders gen_order);
    ]

let random_pred rand table =
  let age_like () =
    let bound = 15 + Random.State.int rand 8 in
    let hi = 17 + Random.State.int rand 5 in
    match Random.State.int rand 3 with
    | 0 -> Expr.Cmp (Expr.Ge, Expr.col "age", Expr.int bound)
    | 1 -> Expr.Between (Expr.col "age", Expr.int 16, Expr.int hi)
    | _ ->
        Expr.eq (Expr.col "gender")
          (Expr.str (if Random.State.bool rand then "m" else "f"))
  in
  let amount_like () =
    let cutoff = 10 * (1 + Random.State.int rand 9) in
    match Random.State.int rand 3 with
    | 0 -> Expr.Cmp (Expr.Lt, Expr.col "amount", Expr.int cutoff)
    | 1 ->
        Expr.eq (Expr.col "item")
          (Expr.str (Printf.sprintf "i%d" (Random.State.int rand 4)))
    | _ ->
        Expr.In_list
          ( Expr.col "amount",
            [ Value.Int 10; Value.Int 30; Value.Int 50; Value.Int 70 ] )
  in
  if table = "Users" then age_like () else amount_like ()

(* Random queries spanning every evaluator feature: projections,
   DISTINCT, LIMIT, aggregates, GROUP BY, and joins. *)
let random_query rand i =
  let open Query in
  let name = Printf.sprintf "RQ%d" i in
  match Random.State.int rand 9 with
  | 0 ->
      make ~name ~from:[ "Users" ]
        ~where:(random_pred rand "Users")
        [ Field (Expr.col "name", "name"); Field (Expr.col "age", "age") ]
  | 1 ->
      make ~name ~distinct:true ~from:[ "Users" ]
        ~where:(random_pred rand "Users")
        [ Field (Expr.col "gender", "gender") ]
  | 2 ->
      make ~name ~from:[ "Users" ]
        ~where:(random_pred rand "Users")
        [
          Aggregate (Count_star, "cnt");
          Aggregate (Sum (Expr.col "age"), "total");
          Aggregate (Avg (Expr.col "age"), "avg");
          Aggregate (Min (Expr.col "age"), "min");
          Aggregate (Max (Expr.col "age"), "max");
        ]
  | 3 ->
      make ~name ~from:[ "Users" ] ~group_by:[ Expr.col "gender" ]
        [
          Field (Expr.col "gender", "gender");
          Aggregate (Count_star, "cnt");
          Aggregate (Max (Expr.col "age"), "oldest");
        ]
  | 4 ->
      make ~name ~from:[ "Orders" ] ~group_by:[ Expr.col "item" ]
        ~where:(random_pred rand "Orders")
        [
          Field (Expr.col "item", "item");
          Aggregate (Sum (Expr.col "amount"), "revenue");
          Aggregate (Count_distinct (Expr.col "uid"), "buyers");
        ]
  | 5 ->
      make ~name ~from:[ "Users"; "Orders" ]
        ~where:
          Expr.(
            eq (col ~table:"Users" "uid") (col ~table:"Orders" "uid")
            && random_pred rand "Orders")
        [ Field (Expr.col "name", "name"); Field (Expr.col "amount", "amount") ]
  | 6 ->
      make ~name ~from:[ "Users"; "Orders" ]
        ~where:
          Expr.(
            eq (col ~table:"Users" "uid") (col ~table:"Orders" "uid")
            && random_pred rand "Users")
        ~group_by:[ Expr.col "gender" ]
        [
          Field (Expr.col "gender", "gender");
          Aggregate (Sum (Expr.col "amount"), "spend");
        ]
  | 7 ->
      make ~name ~from:[ "Users" ] ~limit:(1 + Random.State.int rand 3)
        ~where:(random_pred rand "Users")
        [ Field (Expr.col "uid", "uid"); Field (Expr.col "name", "name") ]
  | _ ->
      (* DISTINCT + LIMIT has no incremental strategy: exercises fallback *)
      make ~name ~distinct:true ~from:[ "Users" ]
        ~limit:(1 + Random.State.int rand 3)
        ~where:(random_pred rand "Users")
        [ Field (Expr.col "gender", "gender") ]

let random_delta rand db =
  let relations = Array.of_list (Database.relations db) in
  let rel = relations.(Random.State.int rand (Array.length relations)) in
  let relation = Schema.name (Relation.schema rel) in
  let row = Random.State.int rand (Relation.cardinality rel) in
  if Random.State.int rand 4 = 0 then R.Delta.Row_drop { relation; row }
  else
    let col = Random.State.int rand (Schema.arity (Relation.schema rel)) in
    let value =
      match Schema.attr_type (Relation.schema rel) col with
      | Schema.T_int -> Value.Int (Random.State.int rand 120)
      | Schema.T_string ->
          Value.Str
            (match Random.State.int rand 3 with
            | 0 -> Printf.sprintf "n%d" (Random.State.int rand 5)
            | 1 -> Printf.sprintf "i%d" (Random.State.int rand 4)
            | _ -> if Random.State.bool rand then "m" else "f")
    in
    R.Delta.Cell_change { relation; row; col; value }
