type conjunct = {
  ast : Expr.t;
  comp : Expr.compiled;
  level : int;  (** the FROM position at which all referenced tables are bound *)
}

type equi = {
  key_col : int;  (** column of the level's table *)
  probe : Expr.compiled;  (** expression over earlier levels (or constant) *)
  probe_col0 : int option;
      (** when the probe is exactly a column of FROM position 0, its
          column index — enables the columnar engine's reverse level-0
          bucket *)
}

type compiled_item =
  | C_field of Expr.compiled * string
  | C_agg of int * string  (** index into the aggregate slots *)

type plan = {
  query : Query.t;
  env_schemas : (string * Schema.t) array;
  table_names : string array;
  filters : conjunct array array;  (** non-equi conjuncts, per level *)
  equis : equi list array;  (** equi-join probes, per level *)
  items : compiled_item array;
  agg_kinds : Agg_state.kind array;
  agg_args : Expr.compiled array;
  group_by : Expr.compiled array;
}

let query p = p.query
let from_env p = p.env_schemas
let table_names p = p.table_names

let rec split_conjuncts = function
  | Expr.And (a, b) -> split_conjuncts a @ split_conjuncts b
  | e -> [ e ]

let max_table comp = List.fold_left max (-1) comp.Expr.tables

(* A conjunct [Col_i = e] where [e] only reads earlier levels becomes a
   hash probe on table [i]; everything else stays a filter at the level
   where all its tables are bound. *)
let classify env_schemas conjuncts =
  let n = Array.length env_schemas in
  let filters = Array.make n [] in
  let equis = Array.make n [] in
  let const_filters = ref [] in
  let as_equi ast =
    match ast with
    | Expr.Cmp (Expr.Eq, a, b) ->
        let try_dir col_side other_side =
          match col_side with
          | Expr.Col cr -> (
              let col_comp = Expr.compile env_schemas col_side in
              let other_comp = Expr.compile env_schemas other_side in
              match col_comp.Expr.tables with
              | [ lvl ] when lvl > 0 && max_table other_comp < lvl ->
                  let _, schema = env_schemas.(lvl) in
                  let key_col = Schema.index_of schema cr.Expr.column in
                  let probe_col0 =
                    match other_side with
                    | Expr.Col ocr when other_comp.Expr.tables = [ 0 ] ->
                        let _, schema0 = env_schemas.(0) in
                        Some (Schema.index_of schema0 ocr.Expr.column)
                    | _ -> None
                  in
                  Some (lvl, { key_col; probe = other_comp; probe_col0 })
              | _ -> None)
          | _ -> None
        in
        (match try_dir a b with Some x -> Some x | None -> try_dir b a)
    | _ -> None
  in
  List.iter
    (fun ast ->
      let comp = Expr.compile env_schemas ast in
      match max_table comp with
      | -1 -> const_filters := { ast; comp; level = 0 } :: !const_filters
      | lvl -> (
          match as_equi ast with
          | Some (elvl, equi) ->
              assert (elvl = lvl);
              equis.(elvl) <- equi :: equis.(elvl)
          | None -> filters.(lvl) <- { ast; comp; level = lvl } :: filters.(lvl)))
    conjuncts;
  (* Constant conjuncts behave as a filter evaluated before level 0. *)
  filters.(0) <- !const_filters @ filters.(0);
  (Array.map Array.of_list filters, equis)

(* SUM/AVG accumulate integers; a string column or literal argument
   would only fail later, inside the accumulator, on the first row. *)
let is_string_valued env_schemas = function
  | Expr.Col cr ->
      let lvl, col = Expr.resolve env_schemas cr in
      Schema.attr_type (snd env_schemas.(lvl)) col = Schema.T_string
  | Expr.Const (Value.Str _) -> true
  | _ -> false

let prepare db q =
  let from = Array.of_list q.Query.from in
  let env_schemas =
    Array.map
      (fun { Query.table; alias } ->
        let r =
          match Database.relation_opt db table with
          | Some r -> r
          | None -> invalid_arg (Printf.sprintf "Eval.prepare: unknown table %s" table)
        in
        (Option.value alias ~default:table, Relation.schema r))
      from
  in
  let table_names = Array.map (fun { Query.table; _ } -> table) from in
  let conjuncts =
    match q.Query.where with None -> [] | Some w -> split_conjuncts w
  in
  let filters, equis = classify env_schemas conjuncts in
  let aggs = Array.of_list (Query.aggregates q) in
  let agg_kinds = Array.map Agg_state.kind_of_agg aggs in
  let agg_arg fn =
    match fn with
    | Query.Count_star -> Expr.compile env_schemas (Expr.Const Value.Null)
    | Query.Sum e | Query.Avg e when is_string_valued env_schemas e ->
        invalid_arg
          (Printf.sprintf "Eval.prepare: SUM/AVG over the string %s"
             (Expr.to_sql e))
    | Query.Count e | Query.Count_distinct e | Query.Sum e | Query.Avg e
    | Query.Min e | Query.Max e ->
        Expr.compile env_schemas e
  in
  let agg_args = Array.map agg_arg aggs in
  let next_agg = ref 0 in
  let items =
    Array.of_list
      (List.map
         (function
           | Query.Field (e, name) -> C_field (Expr.compile env_schemas e, name)
           | Query.Aggregate (_, name) ->
               let i = !next_agg in
               incr next_agg;
               C_agg (i, name))
         q.Query.select)
  in
  let group_by =
    Array.of_list (List.map (Expr.compile env_schemas) q.Query.group_by)
  in
  { query = q; env_schemas; table_names; filters; equis; items; agg_kinds;
    agg_args; group_by }

(* --- introspection for the join enumerators ------------------------ *)

(* A conjunct at level [lvl] is "single" when it reads only that level's
   tuple; single conjuncts are applied once while building the level's
   candidate set, cross conjuncts inside the join recursion. *)
let is_single lvl { comp; _ } =
  match comp.Expr.tables with [] -> true | [ t ] -> t = lvl | _ -> false

type filter_info = { f_ast : Expr.t; f_comp : Expr.compiled }

let single_filters plan lvl =
  List.filter_map
    (fun c ->
      if is_single lvl c then Some { f_ast = c.ast; f_comp = c.comp } else None)
    (Array.to_list plan.filters.(lvl))

let cross_compiled plan =
  Array.mapi
    (fun lvl fs ->
      Array.of_list
        (List.filter_map
           (fun c -> if is_single lvl c then None else Some c.comp)
           (Array.to_list fs)))
    plan.filters

let level_equis plan lvl =
  List.map (fun e -> (e.key_col, e.probe, e.probe_col0)) plan.equis.(lvl)

(* --- output construction ------------------------------------------- *)

let header plan =
  Array.map
    (function C_field (_, name) | C_agg (_, name) -> name)
    plan.items

let plain_rows plan envs =
  List.rev_map
    (fun env ->
      Array.map
        (function
          | C_field (comp, _) -> comp.Expr.eval env
          | C_agg _ -> assert false)
        plan.items)
    envs

let group_key plan env = Array.map (fun c -> c.Expr.eval env) plan.group_by
let agg_row plan env = Array.map (fun c -> c.Expr.eval env) plan.agg_args
let agg_kinds plan = plan.agg_kinds

let project plan env =
  Array.map
    (function
      | C_field (comp, _) -> comp.Expr.eval env
      | C_agg _ -> invalid_arg "Eval.project: plan has aggregates")
    plan.items

let grouped_rows plan envs =
  let groups : (Value.t array, Agg_state.acc * Expr.env) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun env ->
      let key = group_key plan env in
      let acc, _ =
        match Hashtbl.find_opt groups key with
        | Some g -> g
        | None ->
            let g = (Agg_state.create plan.agg_kinds, env) in
            Hashtbl.add groups key g;
            g
      in
      Agg_state.add acc (agg_row plan env))
    envs;
  if Hashtbl.length groups = 0 && plan.group_by = [||] then
    (* Global aggregate over an empty input: one row with SQL empty-set
       semantics. *)
    let empty = Agg_state.empty_output plan.agg_kinds in
    [
      Array.map
        (function
          | C_field _ -> Value.Null
          | C_agg (i, _) -> empty.(i))
        plan.items;
    ]
  else
    Hashtbl.fold
      (fun _key (acc, repr) rows ->
        let outputs = Agg_state.output acc in
        Array.map
          (function
            | C_field (comp, _) -> comp.Expr.eval repr
            | C_agg (i, _) -> outputs.(i))
          plan.items
        :: rows)
      groups []

let dedupe_sorted rows =
  match rows with
  | [||] -> rows
  | _ ->
      let out = ref [ rows.(0) ] and count = ref 1 in
      for i = 1 to Array.length rows - 1 do
        if not (Array.for_all2 Value.equal rows.(i) rows.(i - 1)) then begin
          out := rows.(i) :: !out;
          incr count
        end
      done;
      let arr = Array.make !count rows.(0) in
      List.iteri (fun i r -> arr.(!count - 1 - i) <- r) !out;
      arr

let result_of_envs plan envs =
  let is_grouped = plan.group_by <> [||] || Array.length plan.agg_kinds > 0 in
  let rows =
    if is_grouped then grouped_rows plan envs else plain_rows plan envs
  in
  let result = Result_set.make ~header:(header plan) (Array.of_list rows) in
  let result =
    if plan.query.Query.distinct then
      Result_set.make ~header:(header plan) (dedupe_sorted (Result_set.rows result))
    else result
  in
  match plan.query.Query.limit with
  | Some k -> Result_set.truncated_to k result
  | None -> result
