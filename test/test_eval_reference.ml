(* Crosscheck of the full evaluator against a deliberately naive
   reference implementation (no planner, no pushdown, no hash joins):
   materialize the cross product, filter, then aggregate by scanning.
   Any divergence exposes a planner bug. *)

open Fixtures
module Col_eval = Qp_relational.Col_eval
module Result_set = Qp_relational.Result_set
module Agg_state = Qp_relational.Agg_state

(* --- the reference evaluator --- *)

let cross_product db (froms : Query.from_item list) =
  let tables =
    List.map (fun { Query.table; _ } -> Database.relation db table) froms
  in
  List.fold_left
    (fun envs rel ->
      List.concat_map
        (fun env ->
          Array.to_list (Relation.tuples rel)
          |> List.map (fun tup -> env @ [ tup ]))
        envs)
    [ [] ] tables
  |> List.map Array.of_list

let reference_run db (q : Query.t) =
  let env_schemas =
    Array.of_list
      (List.map
         (fun { Query.table; alias } ->
           ( Option.value alias ~default:table,
             Relation.schema (Database.relation db table) ))
         q.Query.from)
  in
  let compile e = (Expr.compile env_schemas e).Expr.eval in
  let rows = cross_product db q.Query.from in
  let rows =
    match q.Query.where with
    | None -> rows
    | Some w ->
        let pred = compile w in
        List.filter (fun env -> Expr.is_true (pred env)) rows
  in
  let aggs = Query.aggregates q in
  let header =
    Array.of_list
      (List.map
         (function Query.Field (_, n) | Query.Aggregate (_, n) -> n)
         q.Query.select)
  in
  let out_rows =
    if aggs = [] && q.Query.group_by = [] then
      List.map
        (fun env ->
          Array.of_list
            (List.map
               (function
                 | Query.Field (e, _) -> compile e env
                 | Query.Aggregate _ -> assert false)
               q.Query.select))
        rows
    else begin
      let kinds = Array.of_list (List.map Agg_state.kind_of_agg aggs) in
      let args =
        Array.of_list
          (List.map
             (function
               | Query.Count_star -> fun _ -> Value.Null
               | Query.Count e | Query.Count_distinct e | Query.Sum e
               | Query.Avg e | Query.Min e | Query.Max e ->
                   compile e)
             aggs)
      in
      let key_of env =
        List.map (fun e -> compile e env) q.Query.group_by
      in
      let groups = Hashtbl.create 8 in
      List.iter
        (fun env ->
          let key = key_of env in
          let acc, _ =
            match Hashtbl.find_opt groups key with
            | Some g -> g
            | None ->
                let g = (Agg_state.create kinds, env) in
                Hashtbl.add groups key g;
                g
          in
          Agg_state.add acc (Array.map (fun f -> f env) args))
        rows;
      if Hashtbl.length groups = 0 && q.Query.group_by = [] then
        [
          (let empty = Agg_state.empty_output kinds in
           let next = ref (-1) in
           Array.of_list
             (List.map
                (function
                  | Query.Field _ -> Value.Null
                  | Query.Aggregate _ ->
                      incr next;
                      empty.(!next))
                q.Query.select));
        ]
      else
        Hashtbl.fold
          (fun _ (acc, repr) out ->
            let outputs = Agg_state.output acc in
            let next = ref (-1) in
            Array.of_list
              (List.map
                 (function
                   | Query.Field (e, _) -> compile e repr
                   | Query.Aggregate _ ->
                       incr next;
                       outputs.(!next))
                 q.Query.select)
            :: out)
          groups []
    end
  in
  let result = Result_set.make ~header (Array.of_list out_rows) in
  let result =
    if q.Query.distinct then
      let rows = Result_set.rows result in
      let dedup =
        Array.of_list
          (List.sort_uniq
             (fun a b -> Result_set.compare_rows a b)
             (Array.to_list rows))
      in
      Result_set.make ~header dedup
    else result
  in
  match q.Query.limit with
  | Some k -> Result_set.truncated_to k result
  | None -> result

(* --- the crosscheck --- *)

let test_reference_crosscheck () =
  let rand = Random.State.make [| 314 |] in
  for round = 1 to 200 do
    let database = random_db rand in
    let q = random_query rand round in
    let fast = Col_eval.run database q in
    let slow = reference_run database q in
    if not (Result_set.equal fast slow) then
      Alcotest.failf "divergence on %s:\nfast:\n%s\nreference:\n%s"
        (Query.to_sql q)
        (Format.asprintf "%a" Result_set.pp fast)
        (Format.asprintf "%a" Result_set.pp slow)
  done

let test_reference_on_fixture_queries () =
  (* spot-check the reference itself on a query with a known answer *)
  let q =
    Query.make ~name:"known" ~from:[ "Users" ]
      ~where:Expr.(eq (col "gender") (str "f"))
      [ Query.Aggregate (Query.Count_star, "c") ]
  in
  let r = reference_run db q in
  Alcotest.(check bool) "2 female users" true
    (Value.equal (Result_set.rows r).(0).(0) (Value.Int 2))

let suite =
  ( "eval-reference",
    [
      Alcotest.test_case "reference evaluator sanity" `Quick
        test_reference_on_fixture_queries;
      Alcotest.test_case "planner == naive reference (200 random queries)"
        `Quick test_reference_crosscheck;
    ] )
