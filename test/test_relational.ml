(* Tests for schemas, relations, databases and deltas. *)

open Fixtures
module Delta = Qp_relational.Delta

let test_schema_basics () =
  Alcotest.(check string) "name" "Users" (Schema.name users_schema);
  Alcotest.(check int) "arity" 4 (Schema.arity users_schema);
  Alcotest.(check int) "index case-insensitive" 1
    (Schema.index_of users_schema "NAME");
  Alcotest.(check string) "attr name" "gender" (Schema.attr_name users_schema 2);
  Alcotest.check_raises "unknown attr" Not_found (fun () ->
      ignore (Schema.index_of users_schema "nope"))

let test_schema_duplicate_attr () =
  match
    Schema.make ~name:"X" ~attrs:[ ("a", Schema.T_int); ("A", Schema.T_int) ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected duplicate-attribute rejection"

let test_schema_equal () =
  Alcotest.(check bool) "equal" true (Schema.equal users_schema users_schema);
  Alcotest.(check bool) "not equal" false
    (Schema.equal users_schema orders_schema)

let test_relation_checks () =
  (match Relation.make users_schema [ [| Value.Int 1 |] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity check");
  match
    Relation.make users_schema
      [ [| Value.Str "x"; Value.Str "n"; Value.Str "m"; Value.Int 1 |] ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type check"

let test_relation_null_allowed () =
  let r =
    Relation.make users_schema
      [ [| Value.Null; Value.Null; Value.Null; Value.Null |] ]
  in
  Alcotest.(check int) "one row" 1 (Relation.cardinality r)

let test_relation_access () =
  let r = Database.relation db "users" in
  Alcotest.(check int) "rows" 4 (Relation.cardinality r);
  Alcotest.(check bool) "get" true
    (Value.equal (Relation.get r 1 "name") (Value.Str "Alice"))

let test_relation_replace_drop () =
  let r = Database.relation db "Users" in
  let r2 = Relation.replace_tuple r 0 (user 1 "Abe" "m" 19) in
  Alcotest.(check bool) "replaced" true
    (Value.equal (Relation.get r2 0 "age") (Value.Int 19));
  Alcotest.(check bool) "original untouched" true
    (Value.equal (Relation.get r 0 "age") (Value.Int 18));
  let r3 = Relation.drop_tuple r 1 in
  Alcotest.(check int) "dropped" 3 (Relation.cardinality r3);
  Alcotest.(check bool) "shifted" true
    (Value.equal (Relation.get r3 1 "name") (Value.Str "Bob"))

let test_database () =
  Alcotest.(check (list string)) "names" [ "Users"; "Orders" ] (Database.names db);
  Alcotest.(check int) "total rows" 9 (Database.total_rows db);
  Alcotest.(check bool) "missing" true (Database.relation_opt db "nope" = None);
  match Database.make [ Database.relation db "Users"; Database.relation db "users" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate relation"

let test_delta_cell_change () =
  let d = Delta.Cell_change { relation = "Users"; row = 1; col = 3; value = Value.Int 30 } in
  let db' = Delta.apply db d in
  Alcotest.(check bool) "changed" true
    (Value.equal (Relation.get (Database.relation db' "Users") 1 "age") (Value.Int 30));
  Alcotest.(check bool) "base unchanged" true
    (Value.equal (Relation.get (Database.relation db "Users") 1 "age") (Value.Int 20));
  let old_t = Relation.tuple (Database.relation db "Users") 1 in
  let new_t = Relation.tuple (Database.relation db' "Users") 1 in
  Alcotest.(check bool) "old" true (Value.equal old_t.(3) (Value.Int 20));
  Alcotest.(check bool) "new" true (Value.equal new_t.(3) (Value.Int 30))

let test_delta_row_drop () =
  let d = Delta.Row_drop { relation = "Orders"; row = 0 } in
  let db' = Delta.apply db d in
  Alcotest.(check int) "one fewer" 4
    (Relation.cardinality (Database.relation db' "Orders"))

let test_delta_noop () =
  let noop = Delta.Cell_change { relation = "Users"; row = 0; col = 3; value = Value.Int 18 } in
  Alcotest.(check bool) "noop" true (Delta.is_noop db noop);
  let real = Delta.Cell_change { relation = "Users"; row = 0; col = 3; value = Value.Int 19 } in
  Alcotest.(check bool) "not noop" false (Delta.is_noop db real);
  Alcotest.(check bool) "drop not noop" false
    (Delta.is_noop db (Delta.Row_drop { relation = "Users"; row = 0 }))

let test_delta_relation () =
  Alcotest.(check string) "relation" "Users"
    (Delta.relation (Delta.Row_drop { relation = "Users"; row = 0 }))

(* A database owns one columnar image per relation: applying a delta
   rebuilds the perturbed relation's image only, sharing every other
   image physically, and the rebuilt image is the one a fresh build of
   the perturbed relation gives, column by column (values, dictionaries
   and validity bits). *)
let test_delta_shares_images () =
  let module CT = Qp_relational.Col_table in
  let world =
    Qp_workloads.World.generate ~rng:(Qp_util.Rng.create 7)
      ~config:Qp_workloads.World.tiny_config ()
  in
  let rand = Random.State.make [| 27 |] in
  List.iter
    (fun base ->
      List.iter
        (fun name ->
          let r = Database.relation base name in
          let n = Relation.cardinality r in
          let row = Random.State.int rand n in
          let col = Random.State.int rand (Schema.arity (Relation.schema r)) in
          let donor = (Relation.tuple r (Random.State.int rand n)).(col) in
          List.iter
            (fun d ->
              let db' = Delta.apply base d in
              List.iter
                (fun other ->
                  if other <> name then
                    Alcotest.(check bool)
                      (Printf.sprintf "%s untouched by a delta on %s" other name)
                      true
                      (Database.columns db' other == Database.columns base other))
                (Database.names base);
              let image = Database.columns db' name in
              let fresh = CT.of_relation (Database.relation db' name) in
              Alcotest.(check int) (name ^ ": rows") (CT.nrows fresh) (CT.nrows image);
              for c = 0 to Schema.arity (Relation.schema r) - 1 do
                Alcotest.(check bool)
                  (Printf.sprintf "%s: column %d equals a fresh image" name c)
                  true
                  (CT.col image c = CT.col fresh c)
              done)
            [
              Delta.Row_drop { relation = name; row };
              Delta.Cell_change { relation = name; row; col; value = donor };
              Delta.Cell_change { relation = name; row; col; value = Value.Null };
            ])
        (Database.names base))
    [ db; world ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "relational",
    [
      t "schema basics" test_schema_basics;
      t "schema duplicate attr rejected" test_schema_duplicate_attr;
      t "schema equality" test_schema_equal;
      t "relation arity/type checks" test_relation_checks;
      t "relation null allowed" test_relation_null_allowed;
      t "relation access" test_relation_access;
      t "relation replace/drop functional" test_relation_replace_drop;
      t "database basics" test_database;
      t "delta cell change" test_delta_cell_change;
      t "delta row drop" test_delta_row_drop;
      t "delta noop detection" test_delta_noop;
      t "delta relation" test_delta_relation;
      t "delta rebuilds only the perturbed image" test_delta_shares_images;
    ] )
