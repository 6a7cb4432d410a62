(* Tests for the dataset generators, query workloads and valuation
   models. Every generated query is executed against its own dataset —
   a broad integration test of the relational layer. *)

module World = Qp_workloads.World
module World_queries = Qp_workloads.World_queries
module Uniform_workload = Qp_workloads.Uniform_workload
module Tpch = Qp_workloads.Tpch
module Tpch_queries = Qp_workloads.Tpch_queries
module Ssb = Qp_workloads.Ssb
module Ssb_queries = Qp_workloads.Ssb_queries
module V = Qp_workloads.Valuations
module Rng = Qp_util.Rng
module R = Qp_relational
module H = Qp_core.Hypergraph

let rng () = Rng.create 2024
let world = World.generate ~rng:(rng ()) ~config:World.tiny_config ()
let tpch = Tpch.generate ~rng:(rng ()) ~config:Tpch.tiny_config ()
let ssb = Ssb.generate ~rng:(rng ()) ~config:Ssb.tiny_config ()

(* --- world --- *)

let test_world_structure () =
  Alcotest.(check (list string)) "tables"
    [ "Country"; "City"; "CountryLanguage" ]
    (R.Database.names world);
  let countries = R.Database.relation world "Country" in
  Alcotest.(check int) "countries" 30 (R.Relation.cardinality countries)

let test_world_pinned_rows () =
  let codes = World.country_codes world in
  Alcotest.(check bool) "USA" true (List.mem "USA" codes);
  Alcotest.(check bool) "GRC" true (List.mem "GRC" codes);
  let langs = World.language_names world in
  List.iter
    (fun l -> Alcotest.(check bool) l true (List.mem l langs))
    [ "English"; "Greek"; "Spanish" ];
  (* Q30's predicate must match: USA speaks English at >= 50% *)
  let q =
    R.Query.make ~name:"check" ~from:[ "CountryLanguage" ]
      ~where:
        R.Expr.(
          eq (col "CountryCode") (str "USA")
          && eq (col "Language") (str "English")
          && Cmp (Ge, col "Percentage", int 50))
      [ R.Query.Field (R.Expr.col "Percentage", "p") ]
  in
  Alcotest.(check bool) "USA English >= 50" true
    (R.Result_set.row_count (R.Col_eval.run world q) > 0)

let test_world_caribbean () =
  let q =
    R.Query.make ~name:"car" ~from:[ "Country" ]
      ~where:R.Expr.(eq (col "Region") (str "Caribbean"))
      [ R.Query.Field (R.Expr.col "Name", "n") ]
  in
  Alcotest.(check bool) "caribbean non-empty" true
    (R.Result_set.row_count (R.Col_eval.run world q) > 0)

let test_world_deterministic () =
  let w2 = World.generate ~rng:(rng ()) ~config:World.tiny_config () in
  Alcotest.(check int) "same city count"
    (R.Relation.cardinality (R.Database.relation world "City"))
    (R.Relation.cardinality (R.Database.relation w2 "City"))

let test_world_capital_fk () =
  let countries = R.Database.relation world "Country" in
  let cities = R.Database.relation world "City" in
  let city_ids =
    Array.to_list (R.Relation.tuples cities)
    |> List.filter_map (fun t -> R.Value.as_int t.(0))
  in
  Array.iter
    (fun t ->
      match R.Value.as_int t.(8) with
      | Some cap -> Alcotest.(check bool) "capital exists" true (List.mem cap city_ids)
      | None -> Alcotest.fail "capital is null")
    (R.Relation.tuples countries)

let test_world_queries_count () =
  Alcotest.(check int) "34 templates" 34
    (List.length (World_queries.base_templates world));
  let expanded = World_queries.workload world in
  let codes = List.length (World.country_codes world) in
  let langs = List.length (World.language_names world) in
  Alcotest.(check int) "expansion arithmetic"
    (34 + (3 * (codes - 1)) + (2 * 6) + (2 * (langs - 1)))
    (List.length expanded)

let run_all_queries db queries =
  List.iter
    (fun q ->
      match R.Col_eval.run db q with
      | _ -> ()
      | exception exn ->
          Alcotest.failf "query %s failed: %s" q.R.Query.name
            (Printexc.to_string exn))
    queries

let test_world_queries_evaluate () = run_all_queries world (World_queries.workload world)

let test_world_query_names_unique () =
  let names = List.map (fun q -> q.R.Query.name) (World_queries.workload world) in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* Regression: the literal "XXX" padding made distinct 1–2 character
   names share a base code ("A" and "AX" both gave "AXX"), leaving one
   of them an arbitrary rotated code. Digit padding keeps them apart. *)
let test_world_code_padding () =
  let used = Hashtbl.create 8 in
  Alcotest.(check string) "1-char pad" "A11" (World.code_of_name used "A");
  Alcotest.(check string) "2-char pad" "AX2" (World.code_of_name used "AX");
  Alcotest.(check string) "3-letter prefix untouched" "AXE"
    (World.code_of_name used "Axe");
  (* a repeated name still rotates into a fresh code, and padded codes
     never collide with any alphabetic prefix *)
  let again = World.code_of_name used "A" in
  Alcotest.(check bool) "repeat disambiguates" true
    (again <> "A11" && String.length again = 3);
  let used2 = Hashtbl.create 8 in
  let all =
    List.map (World.code_of_name used2) [ "A"; "AX"; "B"; "BX"; "C"; "CX" ]
  in
  Alcotest.(check int) "all distinct" (List.length all)
    (List.length (List.sort_uniq compare all))

(* Regression: disambiguation only cycled the third letter, so a 27th
   name sharing a two-letter prefix looped forever (the Default-scale
   world at seed 4 hung in generation). The second letter now steps too;
   the first 27 codes of a prefix are unchanged. *)
let test_world_code_prefix_overflow () =
  let used = Hashtbl.create 64 in
  let codes =
    List.init 30 (fun i -> World.code_of_name used (Printf.sprintf "Zq%03d" i))
  in
  Alcotest.(check (list string)) "first codes as before"
    [ "ZQ0"; "ZQB"; "ZQC" ]
    (List.filteri (fun i _ -> i < 3) codes);
  Alcotest.(check int) "30 distinct codes" 30
    (List.length (List.sort_uniq String.compare codes));
  List.iter
    (fun c -> Alcotest.(check int) ("3 characters: " ^ c) 3 (String.length c))
    codes

let test_world_default_seed4_generates () =
  let db =
    World.generate
      ~rng:(Rng.split (Rng.create 4) "world")
      ~config:World.default_config ()
  in
  Alcotest.(check bool) "has a Country table" true
    (Option.is_some (R.Database.relation_opt db "Country"))

(* --- uniform workload --- *)

let test_uniform_workload () =
  let qs = Uniform_workload.workload ~rng:(rng ()) ~m:25 world in
  Alcotest.(check int) "m" 25 (List.length qs);
  run_all_queries world qs;
  (* selectivity control: each query returns a similar number of rows *)
  let selectivities =
    List.map
      (fun q ->
        let n = R.Result_set.row_count (R.Col_eval.run world q) in
        let table = List.hd (R.Query.tables q) in
        let total = R.Relation.cardinality (R.Database.relation world table) in
        Float.of_int n /. Float.of_int (max 1 total))
      qs
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "selectivity near 0.4" true (s >= 0.2 && s <= 0.65))
    selectivities

(* --- tpch --- *)

let test_tpch_structure () =
  Alcotest.(check int) "8 tables" 8 (List.length (R.Database.names tpch));
  Alcotest.(check int) "regions" 5
    (R.Relation.cardinality (R.Database.relation tpch "region"));
  Alcotest.(check int) "nations" 25
    (R.Relation.cardinality (R.Database.relation tpch "nation"));
  Alcotest.(check int) "part types" 150 (Array.length Tpch.part_types);
  Alcotest.(check int) "containers" 40 (Array.length Tpch.containers)

let test_tpch_queries_count () =
  Alcotest.(check int) "220 queries" 220 (List.length (Tpch_queries.workload ()))

let test_tpch_queries_evaluate () = run_all_queries tpch (Tpch_queries.workload ())

let test_tpch_date () =
  Alcotest.(check int) "encoding" 19940315 (Tpch.date ~year:1994 ~month:3 ~day:15)

(* --- ssb --- *)

let test_ssb_structure () =
  Alcotest.(check int) "5 tables" 5 (List.length (R.Database.names ssb));
  Alcotest.(check int) "250 cities" 250 (Array.length Ssb.cities);
  Alcotest.(check int) "25 categories" 25 (Array.length Ssb.categories);
  (* every city is 10 characters: 9-char nation prefix + digit *)
  Array.iter
    (fun c -> Alcotest.(check int) "city width" 10 (String.length c))
    Ssb.cities

let test_ssb_dates_cover_december () =
  let q =
    R.Query.make ~name:"dec" ~from:[ "date" ]
      ~where:R.Expr.(eq (col "d_yearmonthnum") (int 199712))
      [ R.Query.Aggregate (R.Query.Count_star, "c") ]
  in
  let rows = R.Result_set.rows (R.Col_eval.run ssb q) in
  Alcotest.(check bool) "december rows exist" true
    (R.Value.compare rows.(0).(0) (R.Value.Int 0) > 0)

let test_ssb_queries_count () =
  Alcotest.(check int) "701 queries" 701 (List.length (Ssb_queries.workload ()))

let test_ssb_queries_evaluate () = run_all_queries ssb (Ssb_queries.workload ())

(* --- valuations --- *)

let small_h =
  H.create ~n_items:6
    [| ("a", [| 0 |], 1.0); ("b", [| 0; 1; 2; 3 |], 1.0); ("c", [||], 1.0) |]

let test_valuations_nonnegative () =
  List.iter
    (fun model ->
      let vals = V.draw ~rng:(rng ()) model small_h in
      Alcotest.(check int) "arity" 3 (Array.length vals);
      Array.iter
        (fun v -> Alcotest.(check bool) (V.describe model) true (v >= 0.0))
        vals)
    [
      V.Uniform_val 100.0; V.Zipf_val 1.5; V.Scaled_exp 1.0; V.Scaled_normal 0.5;
      V.Additive { k = 10; dtilde = V.D_uniform };
      V.Additive { k = 10; dtilde = V.D_binomial };
    ]

let test_scaled_empty_edges_zero () =
  List.iter
    (fun model ->
      let vals = V.draw ~rng:(rng ()) model small_h in
      Alcotest.(check (float 1e-9)) "empty edge worth 0" 0.0 vals.(2))
    [ V.Scaled_exp 1.0; V.Scaled_normal 1.0;
      V.Additive { k = 5; dtilde = V.D_uniform } ]

let test_additive_is_additive () =
  (* additive model: v_b (4 items) >= v_a (1 item, a subset of b's items) *)
  let vals = V.draw ~rng:(rng ()) (V.Additive { k = 3; dtilde = V.D_uniform }) small_h in
  Alcotest.(check bool) "superset worth more" true (vals.(1) >= vals.(0))

let test_uniform_val_range () =
  let vals = V.draw ~rng:(rng ()) (V.Uniform_val 50.0) small_h in
  Array.iter
    (fun v -> Alcotest.(check bool) "in [1,50]" true (v >= 1.0 && v <= 50.0))
    vals

let test_valuations_deterministic () =
  let a = V.draw ~rng:(Rng.create 5) (V.Zipf_val 2.0) small_h in
  let b = V.draw ~rng:(Rng.create 5) (V.Zipf_val 2.0) small_h in
  Alcotest.(check bool) "same" true (a = b)

let test_apply () =
  let h = V.apply ~rng:(rng ()) (V.Uniform_val 10.0) small_h in
  Alcotest.(check bool) "changed" true
    (H.sum_valuations h <> H.sum_valuations small_h)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "workloads",
    [
      t "world structure" test_world_structure;
      t "world pinned rows" test_world_pinned_rows;
      t "world caribbean populated" test_world_caribbean;
      t "world deterministic" test_world_deterministic;
      t "world capital foreign key" test_world_capital_fk;
      t "world query expansion count" test_world_queries_count;
      t "world queries all evaluate" test_world_queries_evaluate;
      t "world query names unique" test_world_query_names_unique;
      t "world code padding collision-free" test_world_code_padding;
      t "uniform workload selectivity" test_uniform_workload;
      t "tpch structure" test_tpch_structure;
      t "tpch 220 queries" test_tpch_queries_count;
      t "tpch queries all evaluate" test_tpch_queries_evaluate;
      t "tpch date encoding" test_tpch_date;
      t "ssb structure" test_ssb_structure;
      t "ssb dates cover december" test_ssb_dates_cover_december;
      t "ssb 701 queries" test_ssb_queries_count;
      t "ssb queries all evaluate" test_ssb_queries_evaluate;
      t "valuations non-negative" test_valuations_nonnegative;
      t "scaled models zero empty edges" test_scaled_empty_edges_zero;
      t "additive model is additive" test_additive_is_additive;
      t "uniform valuation range" test_uniform_val_range;
      t "valuations deterministic" test_valuations_deterministic;
      t "apply rewrites valuations" test_apply;
      t "world codes past a full prefix" test_world_code_prefix_overflow;
      t "world default scale generates at seed four"
        test_world_default_seed4_generates;
    ] )
