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

(* Bitset's word-level scans (lowest-bit isolation, per-word popcount)
   against a bit-by-bit reference over [get], at lengths around the
   63-bit word boundary and on masks that set bit 62, the sign bit of
   an OCaml int. *)
let test_bitset_scans_match_reference () =
  let module B = R.Bitset in
  let rand = Random.State.make [| 63 |] in
  let check name m =
    let reference = List.filter (B.get m) (List.init (B.length m) Fun.id) in
    let seen = ref [] in
    B.iter (fun i -> seen := i :: !seen) m;
    Alcotest.(check (list int)) (name ^ ": iter") reference (List.rev !seen);
    Alcotest.(check int) (name ^ ": count") (List.length reference) (B.count m);
    Alcotest.(check (array int))
      (name ^ ": to_array")
      (Array.of_list reference) (B.to_array m);
    (* ids crossing word boundaries, repeated across rows *)
    let ids = Array.init (B.length m) (fun i -> i * 37 mod 130) in
    Alcotest.(check (list int))
      (name ^ ": scatter")
      (List.sort_uniq Int.compare (List.map (fun i -> ids.(i)) reference))
      (Array.to_list (B.to_array (B.scatter m ids 130)));
    if B.length m > 0 then begin
      let rows = Array.init 200 (fun r -> r * 53 mod B.length m) in
      let g = B.gather m rows in
      Alcotest.(check (list bool))
        (name ^ ": gather")
        (Array.to_list (Array.map (B.get m) rows))
        (List.init 200 (B.get g))
    end
  in
  List.iter
    (fun len ->
      let masks =
        [
          ("empty", fun () -> B.create len);
          ("full", fun () -> B.full len);
          ("every 7th", fun () -> B.init len (fun i -> i mod 7 = 0));
          ("random", fun () -> B.init len (fun _ -> Random.State.bool rand));
          ("bit 62 of each word", fun () -> B.init len (fun i -> i mod 63 = 62));
        ]
      in
      List.iter
        (fun (mname, make) ->
          let name = Printf.sprintf "len %d, %s" len mname in
          check name (make ());
          let m = make () in
          B.inter_into m (B.init len (fun _ -> Random.State.bool rand));
          check (name ^ ", after inter_into") m;
          let m = make () in
          B.complement_into m;
          check (name ^ ", after complement_into") m)
        masks)
    [ 0; 1; 62; 63; 64; 126; 127; 6000 ]

(* A star schema — fact F, dimensions D1 and D2 — shaped to reach every
   branch of the star pre-check: NULL foreign keys (and a NULL dimension
   key, which joins them under the engines' Null = Null probe rule), a
   filtered fact level (so its candidates are a strict subset of its
   rows), constant equis on D1 (the joinable-key path), and an
   expression probe on D2 next to its bare-column equi (the bucket
   path) or alone (the conservative path). For every row drop and every
   single-cell change over a small value domain, the columnar conflict
   sets must equal the row oracle's. *)
let test_star_precheck_matches_oracle () =
  let open Expr in
  let i v = Value.Int v and s v = Value.Str v and null = Value.Null in
  let f_schema =
    Schema.make ~name:"F"
      ~attrs:
        [ ("fid", Schema.T_int); ("dk1", Schema.T_int); ("dk2", Schema.T_int);
          ("amt", Schema.T_int); ("tag", Schema.T_string) ]
  and d1_schema =
    Schema.make ~name:"D1"
      ~attrs:[ ("k", Schema.T_int); ("region", Schema.T_string); ("yr", Schema.T_int) ]
  and d2_schema =
    Schema.make ~name:"D2"
      ~attrs:[ ("k2", Schema.T_int); ("k2x", Schema.T_int); ("cat", Schema.T_string) ]
  in
  let database =
    Database.make
      [
        Relation.make f_schema
          (List.mapi
             (fun r (dk1, dk2, amt, tag) -> [| i (succ r); dk1; dk2; i amt; s tag |])
             [ (i 1, i 1, 30, "a"); (i 1, i 2, 10, "b"); (i 2, i 1, 40, "a");
               (i 3, i 3, 50, "b"); (null, i 2, 60, "a"); (null, null, 25, "b");
               (i 9, i 1, 35, "a"); (i 3, i 2, 45, "a"); (i 4, i 3, 20, "b");
               (i 2, null, 55, "b"); (i 1, i 1, 15, "a"); (i 3, i 1, 65, "a") ]);
        Relation.make d1_schema
          [ [| i 1; s "EU"; i 1993 |]; [| i 2; s "EU"; i 1994 |];
            [| i 3; s "AS"; i 1993 |]; [| null; s "AS"; i 1993 |];
            [| i 4; s "AM"; null |] ];
        Relation.make d2_schema
          [ [| i 1; i 10; s "x" |]; [| i 2; i 20; s "y" |];
            [| i 3; i 31; s "x" |]; [| null; null; s "z" |] ];
      ]
  in
  let fdk1 = col ~table:"F" "dk1" and fdk2 = col ~table:"F" "dk2" in
  let d1 = eq fdk1 (col ~table:"D1" "k")
  and d1993 = eq (col ~table:"D1" "yr") (int 1993)
  and d2 = eq fdk2 (col ~table:"D2" "k2")
  and d2x = eq (col ~table:"D2" "k2x") (fdk2 * int 10)
  and big = Cmp (Gt, col ~table:"F" "amt", int 20) in
  let queries =
    [
      Query.make ~name:"grouped" ~from:[ "F"; "D1"; "D2" ]
        ~where:(d1 && d1993 && d2 && d2x && big)
        ~group_by:[ col ~table:"D1" "region" ]
        [ Query.Field (col ~table:"D1" "region", "r");
          Query.Aggregate (Query.Sum (col ~table:"F" "amt"), "s") ];
      Query.make ~name:"rows" ~from:[ "F"; "D1"; "D2" ]
        ~where:(d1 && d1993 && eq (col ~table:"D1" "region") (str "EU") && d2 && big)
        [ Query.Field (col ~table:"F" "fid", "f");
          Query.Field (col ~table:"D2" "cat", "c") ];
      Query.make ~name:"count" ~from:[ "F"; "D1" ]
        ~where:(d1 && d1993 && eq (col ~table:"F" "tag") (str "a"))
        [ Query.Aggregate (Query.Count_star, "c") ];
      Query.make ~name:"expression-only" ~from:[ "F"; "D2" ]
        ~where:(d2x && big)
        ~group_by:[ col ~table:"D2" "cat" ]
        [ Query.Field (col ~table:"D2" "cat", "c");
          Query.Aggregate (Query.Count_star, "n") ];
    ]
  in
  let domain = function
    | Schema.T_int -> List.map i [ 1; 2; 3; 4; 9; 10; 20; 30; 31; 1993; 1994; 77 ] @ [ null ]
    | Schema.T_string -> List.map s [ "EU"; "AS"; "AM"; "x"; "y"; "z"; "a"; "b" ] @ [ null ]
  in
  let deltas =
    List.concat_map
      (fun rel ->
        let schema = Relation.schema rel in
        let relation = Schema.name schema in
        List.concat
          (List.init (Relation.cardinality rel) (fun row ->
               R.Delta.Row_drop { relation; row }
               :: List.concat
                    (List.init (Schema.arity schema) (fun c ->
                         List.filter_map
                           (fun value ->
                             if Value.equal value (Relation.tuple rel row).(c) then None
                             else Some (R.Delta.Cell_change { relation; row; col = c; value }))
                           (domain (Schema.attr_type schema c)))))))
      (Database.relations database)
    |> Array.of_list
  in
  let valued = List.map (fun q -> (q, 1.0)) queries in
  let build prepare = fst (Conflict.hypergraph ~jobs:1 ~prepare database valued deltas) in
  let h_row = build Qp_rel_oracle.prepare and h_col = build Delta_eval.prepare in
  Array.iter2
    (fun (er : H.edge) (ec : H.edge) ->
      Alcotest.(check string) "edge order" er.H.name ec.H.name;
      Alcotest.(check bool) (er.H.name ^ ": conflicts found") true (er.H.items <> [||]);
      Alcotest.(check (array int)) (er.H.name ^ ": conflict set") er.H.items ec.H.items)
    (H.edges h_row) (H.edges h_col);
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (q.Query.name ^ ": incremental strategy")
        true
        (Delta_eval.strategy_name (Delta_eval.prepare database q) <> "fallback"))
    queries

(* Generated star instances for the same check: a fact table F and
   2–4 dimensions D0.., each keyed by an int or a string column, with
   NULL foreign keys and NULL dimension keys, sometimes a filter on the
   fact level (so its candidates are a strict subset of its rows) and
   on a dimension, and per dimension one probe shape: the bare key equi
   alone, with a constant equi (NULL included, which the equi probes
   match structurally), with an expression probe, an expression probe
   alone, a constant equi alone, or no equi at all. For every row drop
   and every single-cell change over a small value domain, the
   columnar conflict sets must equal the row oracle's. *)
type star_dim = {
  str_key : bool;
  dim_rows : Value.t array list;  (* k, a, c *)
  probe : int;  (* shape, see [star_where] *)
  dim_filter : bool;
}

type star_case = {
  dims : star_dim array;
  fact_rows : Value.t array list;  (* fid, fk_0 .. fk_{k-1}, amt, tag *)
  fact_filter : bool;
  const : Value.t;
  shape : int;
}

let star_key str i = if str then Value.Str [| "p"; "q"; "r"; "s" |].(i) else Value.Int (i + 1)

let gen_star_case =
  let open QCheck2.Gen in
  let with_null g = frequency [ (4, g); (1, return Value.Null) ] in
  let small_int = map (fun i -> Value.Int i) (int_range 0 2) in
  let* k = int_range 2 4 in
  let* dims =
    array_repeat k
      (let* str_key = bool in
       (* keys 0–2 (fact keys reach 3, matching no row) *)
       let key = with_null (map (star_key str_key) (int_range 0 2)) in
       let row =
         let+ k = key
         and+ a = with_null small_int
         and+ c = oneofl [ Value.Str "x"; Value.Str "y" ] in
         [| k; a; c |]
       in
       let+ dim_rows = list_size (int_range 1 4) row
       and+ probe = frequencyl [ (4, 0); (3, 1); (2, 2); (1, 3); (1, 4); (1, 5) ]
       and+ dim_filter = frequencyl [ (3, false); (1, true) ] in
       { str_key; dim_rows; probe; dim_filter })
  in
  let fact_row =
    let* fks =
      flatten_a
        (Array.map
           (fun d -> with_null (map (star_key d.str_key) (int_range 0 3)))
           dims)
    in
    let+ amt = with_null (map (fun i -> Value.Int i) (int_range 0 3))
    and+ tag = oneofl [ Value.Str "a"; Value.Str "b" ] in
    Array.concat [ [| Value.Null |]; fks; [| amt; tag |] ]
  in
  let+ fact_rows = list_size (int_range 2 8) fact_row
  and+ fact_filter = bool
  and+ const = frequencyl [ (3, Value.Int 1); (1, Value.Int 0); (1, Value.Null) ]
  and+ shape = int_range 0 2 in
  let fact_rows = List.mapi (fun r t -> t.(0) <- Value.Int r; t) fact_rows in
  { dims; fact_rows; fact_filter; const; shape }

let star_database c =
  let k = Array.length c.dims in
  let key_type d = if d.str_key then Schema.T_string else Schema.T_int in
  let fact_schema =
    Schema.make ~name:"F"
      ~attrs:
        ((("fid", Schema.T_int)
          :: List.init k (fun i -> (Printf.sprintf "fk%d" i, key_type c.dims.(i))))
        @ [ ("amt", Schema.T_int); ("tag", Schema.T_string) ])
  in
  Database.make
    (Relation.make fact_schema c.fact_rows
     :: Array.to_list
          (Array.mapi
             (fun i d ->
               Relation.make
                 (Schema.make ~name:(Printf.sprintf "D%d" i)
                    ~attrs:[ ("k", key_type d); ("a", Schema.T_int); ("c", Schema.T_string) ])
                 d.dim_rows)
             c.dims))

let star_query c =
  let open Expr in
  let k = Array.length c.dims in
  let dcol i name = col ~table:(Printf.sprintf "D%d" i) name in
  let amt = col ~table:"F" "amt" in
  let dim_where i d =
    let bare = eq (col ~table:"F" (Printf.sprintf "fk%d" i)) (dcol i "k") in
    let const = eq (dcol i "a") (Const c.const) in
    let expr = eq (dcol i "a") (amt + int 0) in
    let probes =
      match d.probe with
      | 0 -> [ bare ]
      | 1 -> [ bare; const ]
      | 2 -> [ bare; expr ]
      | 3 -> [ expr ]
      | 4 -> [ const ]
      | _ -> []
    in
    probes @ if d.dim_filter then [ Cmp (Ne, dcol i "c", str "y") ] else []
  in
  let conjuncts =
    List.concat (List.init k (fun i -> dim_where i c.dims.(i)))
    @ if c.fact_filter then [ Cmp (Gt, amt, int 0) ] else []
  in
  let where =
    match conjuncts with
    | [] -> None
    | e :: rest -> Some (List.fold_left ( && ) e rest)
  in
  let from = "F" :: List.init k (Printf.sprintf "D%d") in
  match c.shape with
  | 0 ->
      Query.make ~name:"grouped" ~from ?where ~group_by:[ dcol 0 "c" ]
        [ Query.Field (dcol 0 "c", "c"); Query.Aggregate (Query.Sum amt, "s") ]
  | 1 -> Query.make ~name:"count" ~from ?where [ Query.Aggregate (Query.Count_star, "n") ]
  | _ ->
      Query.make ~name:"rows" ~from ?where
        [ Query.Field (col ~table:"F" "fid", "f"); Query.Field (dcol (Stdlib.( - ) k 1) "c", "c") ]

let star_deltas database =
  let domain = function
    | Schema.T_int -> Value.Null :: List.map (fun i -> Value.Int i) [ 0; 1; 2; 3 ]
    | Schema.T_string -> Value.Null :: List.map (fun s -> Value.Str s) [ "p"; "q"; "s"; "x"; "y" ]
  in
  Database.relations database
  |> List.concat_map (fun rel ->
         let schema = Relation.schema rel in
         let relation = Schema.name schema in
         List.concat
           (List.init (Relation.cardinality rel) (fun row ->
                R.Delta.Row_drop { relation; row }
                :: List.concat
                     (List.init (Schema.arity schema) (fun col ->
                          List.filter_map
                            (fun value ->
                              if Value.equal value (Relation.tuple rel row).(col) then None
                              else Some (R.Delta.Cell_change { relation; row; col; value }))
                            (domain (Schema.attr_type schema col)))))))
  |> Array.of_list

let print_star_case c =
  let database = star_database c in
  String.concat "\n"
    (Query.to_sql (star_query c)
     :: List.map
          (fun rel ->
            Schema.name (Relation.schema rel) ^ ": "
            ^ String.concat "; "
                (Array.to_list
                   (Array.map
                      (fun t -> String.concat "," (Array.to_list (Array.map Value.to_string t)))
                      (Relation.tuples rel))))
          (Database.relations database))

let prop_star_precheck_matches_oracle =
  QCheck2.Test.make ~name:"generated star instances match the row oracle" ~count:150
    ~print:print_star_case gen_star_case (fun c ->
      let database = star_database c in
      let q = star_query c in
      let deltas = star_deltas database in
      let items prepare =
        let h = fst (Conflict.hypergraph ~jobs:1 ~prepare database [ (q, 1.0) ] deltas) in
        (H.edges h).(0).H.items
      in
      if Delta_eval.strategy_name (Delta_eval.prepare database q) = "fallback" then
        QCheck2.Test.fail_report "generated query took the fallback strategy";
      let row = items Qp_rel_oracle.prepare and col = items Delta_eval.prepare in
      if row <> col then
        QCheck2.Test.fail_reportf "conflict sets differ: oracle [%s], columnar [%s]"
          (String.concat "," (Array.to_list (Array.map string_of_int row)))
          (String.concat "," (Array.to_list (Array.map string_of_int col)));
      (* The pre-checks are exact on these plans except when pinning an
         expression-only level: a delta they send to the join must
         really contribute, so a pre-check state wider than it should
         be (a mask left out of an AND) fails here, not only a wrong
         one. *)
      let p = Delta_eval.prepare database q in
      let joiner = Col_eval.prepare (R.Eval.prepare database q) database in
      Array.iter
        (fun d ->
          let before = (Delta_eval.decisions p).Delta_eval.joined in
          ignore (Delta_eval.differs p d);
          let lvl =
            match R.Delta.relation d with
            | "F" -> 0
            | name -> 1 + int_of_string (String.sub name 1 (String.length name - 1))
          in
          if
            (Delta_eval.decisions p).Delta_eval.joined > before
            && (lvl = 0 || c.dims.(lvl - 1).probe <> 3)
          then
            let old_tup, new_tup = R.Delta.changed_tuple database d in
            let contributes tup = Col_eval.join_fixed joiner (lvl, tup) <> [] in
            if not (contributes old_tup || Option.fold ~none:false ~some:contributes new_tup)
            then
              QCheck2.Test.fail_reportf "pre-check sent a non-contributing delta to the join: %s"
                (Format.asprintf "%a" R.Delta.pp d))
        deltas;
      true)

(* The key index behind the joins and the star pre-check, against
   values: equal cells (NULLs included) share an id, each id's rows are
   exactly its cells' rows in descending order, a value no row holds
   has no id, and [translate] carries a set of one column's ids to the
   ids of the same values in another column. *)
let test_key_index_matches_values () =
  let module B = R.Bitset in
  let module CT = R.Col_table in
  let rand = Random.State.make [| 2026 |] in
  let table n =
    let cell mk = if Random.State.int rand 5 = 0 then Value.Null else mk () in
    let schema =
      Schema.make ~name:"K" ~attrs:[ ("i", Schema.T_int); ("s", Schema.T_string) ]
    in
    let rel =
      Relation.make schema
        (List.init n (fun _ ->
             [| cell (fun () -> Value.Int (Random.State.int rand 12 - 3));
                cell (fun () -> Value.Str (String.make 1 "abcdefg".[Random.State.int rand 7])) |]))
    in
    (rel, CT.of_relation rel)
  in
  for round = 1 to 40 do
    let rel, t = table (Random.State.int rand 150) in
    let rel', t' = table (1 + Random.State.int rand 150) in
    let n = Relation.cardinality rel in
    for c = 0 to 1 do
      let k = CT.keys t c in
      let value r = (Relation.tuple rel r).(c) in
      for r = 0 to n - 1 do
        let id = k.CT.ids.(r) in
        Alcotest.(check int) (Printf.sprintf "round %d: key_id" round) id (CT.key_id t c (value r));
        let rows = Array.to_list (Array.sub k.CT.rows k.CT.start.(id) (k.CT.start.(id + 1) - k.CT.start.(id))) in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d: rows of an id" round)
          (List.rev (List.filter (fun r' -> value r' = value r) (List.init n Fun.id)))
          rows
      done;
      let absent = if c = 0 then Value.Int 99 else Value.Str "z" in
      Alcotest.(check int) "absent value" (-1) (CT.key_id t c absent);
      let picked = B.init (Relation.cardinality rel') (fun _ -> Random.State.bool rand) in
      let k' = CT.keys t' c in
      let moved = CT.translate t c t' c (B.scatter picked k'.CT.ids (k'.CT.null_id + 1)) in
      let expected = ref [] in
      B.iter
        (fun r ->
          let id = CT.key_id t c (Relation.tuple rel' r).(c) in
          if id >= 0 then expected := id :: !expected)
        picked;
      Alcotest.(check (list int))
        (Printf.sprintf "round %d: translate" round)
        (List.sort_uniq Int.compare !expected)
        (Array.to_list (B.to_array moved))
    done
  done

(* Images are shared by every domain, so two domains may force the same
   column's key index at once: both must come back with one published
   index, equal to the index a serial build gives (int and string
   columns, with NULLs). *)
let test_key_index_shared_across_domains () =
  let module CT = R.Col_table in
  let rand = Random.State.make [| 2727 |] in
  let cell mk = if Random.State.int rand 4 = 0 then Value.Null else mk () in
  let schema =
    Schema.make ~name:"K" ~attrs:[ ("i", Schema.T_int); ("s", Schema.T_string) ]
  in
  for round = 1 to 20 do
    let rel =
      Relation.make schema
        (List.init (1 + Random.State.int rand 400) (fun _ ->
             [| cell (fun () -> Value.Int (Random.State.int rand 50 - 10));
                cell (fun () -> Value.Str (string_of_int (Random.State.int rand 30))) |]))
    in
    let shared = CT.of_relation rel in
    let force () = Array.init 2 (CT.keys shared) in
    let other = Domain.spawn force in
    let mine = force () in
    let theirs = Domain.join other in
    let serial = CT.of_relation rel in
    for c = 0 to 1 do
      let label what = Printf.sprintf "round %d, column %d: %s" round c what in
      Alcotest.(check bool) (label "one published index") true (mine.(c) == theirs.(c));
      let k = CT.keys serial c in
      Alcotest.(check (array int)) (label "ids") k.CT.ids mine.(c).CT.ids;
      Alcotest.(check (array int)) (label "ints") k.CT.ints mine.(c).CT.ints;
      Alcotest.(check int) (label "null_id") k.CT.null_id mine.(c).CT.null_id;
      Alcotest.(check (array int)) (label "start") k.CT.start mine.(c).CT.start;
      Alcotest.(check (array int)) (label "rows") k.CT.rows mine.(c).CT.rows
    done
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
      t "bitset scans match a bit-by-bit reference" test_bitset_scans_match_reference;
      t "star pre-check matches the row oracle" test_star_precheck_matches_oracle;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2626 |])
        prop_star_precheck_matches_oracle;
      t "key index matches the values" test_key_index_matches_values;
      t "key index shared across domains" test_key_index_shared_across_domains;
    ] )
