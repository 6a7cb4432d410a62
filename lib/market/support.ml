module Delta = Qp_relational.Delta
module Database = Qp_relational.Database
module Relation = Qp_relational.Relation
module Schema = Qp_relational.Schema
module Value = Qp_relational.Value
module Rng = Qp_util.Rng

type config = {
  row_drop_fraction : float;
  domain_sample_bias : float;
}

let default_config = { row_drop_fraction = 0.2; domain_sample_bias = 0.5 }

(* Draw a replacement value for cell (row, col): either another value
   observed in the same column (active domain) or a local mutation of
   the current value. *)
let perturbed_value rng config (r : Relation.t) row col =
  let current = (Relation.tuple r row).(col) in
  let from_domain () =
    let n = Relation.cardinality r in
    let tries = min 32 n in
    let rec go i =
      if i >= tries then None
      else
        let v = (Relation.tuple r (Rng.int rng n)).(col) in
        if Value.equal v current then go (i + 1) else Some v
    in
    go 0
  in
  let local_mutation () =
    match current with
    | Value.Int i ->
        let offset = 1 + Rng.int rng 10 in
        Value.Int (if Rng.bool rng then i + offset else i - offset)
    | Value.Str s -> Value.Str (s ^ "~")
    | Value.Null -> Value.Int (Rng.int rng 1000)
    | Value.Ratio _ -> assert false (* rationals never occur in stored data *)
  in
  if Rng.float rng 1.0 < config.domain_sample_bias then
    match from_domain () with Some v -> v | None -> local_mutation ()
  else local_mutation ()

let dedup_loop db ~n ~draw =
  let seen = Hashtbl.create (2 * n) in
  let out = ref [] and count = ref 0 in
  let budget = ref (100 * n) in
  while !count < n && !budget > 0 do
    decr budget;
    let delta = draw () in
    let key = Format.asprintf "%a" Delta.pp delta in
    if (not (Hashtbl.mem seen key)) && not (Delta.is_noop db delta) then begin
      Hashtbl.replace seen key ();
      out := delta :: !out;
      incr count
    end
  done;
  if !count < n then
    invalid_arg
      (Printf.sprintf
         "Support.generate: could only draw %d of %d distinct deltas" !count n);
  Array.of_list (List.rev !out)

let uniform_draw config ~rng db =
  let relations = Array.of_list (Database.relations db) in
  let total = Database.total_rows db in
  if total = 0 then invalid_arg "Support.generate: empty database";
  let pick_relation () =
    let target = Rng.int rng total in
    let rec go i acc =
      let c = Relation.cardinality relations.(i) in
      if target < acc + c then relations.(i) else go (i + 1) (acc + c)
    in
    go 0 0
  in
  fun () ->
    let r = pick_relation () in
    let name = Schema.name (Relation.schema r) in
    let row = Rng.int rng (Relation.cardinality r) in
    if Rng.float rng 1.0 < config.row_drop_fraction then
      Delta.Row_drop { relation = name; row }
    else
      let col = Rng.int rng (Schema.arity (Relation.schema r)) in
      let value = perturbed_value rng config r row col in
      Delta.Cell_change { relation = name; row; col; value }

let generate ?(config = default_config) ~rng db ~n =
  dedup_loop db ~n ~draw:(uniform_draw config ~rng db)

(* Resolve a column reference against a query's FROM list the same way
   the evaluator does (alias or table name, unique attribute fallback),
   yielding the concrete (relation, column index) the query reads. *)
let referenced_cells db (q : Qp_relational.Query.t) =
  let from =
    List.map
      (fun { Qp_relational.Query.table; alias } ->
        match Database.relation_opt db table with
        | Some r ->
            Some (Option.value alias ~default:table, table, Relation.schema r)
        | None -> None)
      q.Qp_relational.Query.from
    |> List.filter_map Fun.id
  in
  let norm = String.lowercase_ascii in
  let resolve { Qp_relational.Expr.table = tref; column } =
    let hits =
      List.filter_map
        (fun (alias, table, schema) ->
          let table_ok =
            match tref with
            | None -> true
            | Some t -> norm t = norm alias || norm t = norm table
          in
          if not table_ok then None
          else
            match Schema.index_of schema column with
            | col -> Some (norm table, col)
            | exception Not_found -> None)
        from
    in
    match hits with [ hit ] -> Some hit | _ -> None
  in
  let exprs =
    Option.to_list q.Qp_relational.Query.where
    @ q.Qp_relational.Query.group_by
    @ List.concat_map
        (function
          | Qp_relational.Query.Field (e, _) -> [ e ]
          | Qp_relational.Query.Aggregate (fn, _) -> (
              match fn with
              | Qp_relational.Query.Count_star -> []
              | Count e | Count_distinct e | Sum e | Avg e | Min e | Max e ->
                  [ e ]))
        q.Qp_relational.Query.select
  in
  List.filter_map resolve
    (List.concat_map Qp_relational.Expr.columns exprs)

module Q = Qp_relational.Query
module E = Qp_relational.Expr

type footprint = {
  fp_relation : string;
  fp_rows : int list;  (** rows satisfying all single conjuncts *)
  fp_flips : (int * Value.t * int list) list;
      (** (column, satisfying value, near-miss rows): perturbing the
          column of a near-miss row to the value flips the row into the
          query's result — Q(D_i) <> Q(D) by construction (§7.2) *)
}

let rec conjuncts = function
  | E.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* A value making [ast] true when written into its column, for the
   predicate shapes the workloads use. *)
let satisfying_value = function
  | E.Cmp (E.Eq, E.Col _, E.Const v) | E.Cmp (E.Eq, E.Const v, E.Col _) ->
      Some v
  | E.In_list (E.Col _, v :: _) -> Some v
  | E.Between (E.Col _, E.Const lo, E.Const _) -> Some lo
  | _ -> None

let column_of_single env_schemas position = function
  | E.Cmp (_, E.Col cr, _) | E.Cmp (_, _, E.Col cr)
  | E.In_list (E.Col cr, _) | E.Between (E.Col cr, _, _) -> (
      let _, schema = env_schemas.(position) in
      match Schema.index_of schema cr.E.column with
      | col -> Some col
      | exception Not_found -> None)
  | _ -> None

(* The footprint of [q] at FROM [position]: rows satisfying all the
   single-table conjuncts there, plus for each conjunct the "near-miss"
   rows satisfying every other conjunct together with a cell write that
   would make the dropped conjunct true. *)
let footprint_rows db (q : Q.t) position =
  let from = Array.of_list q.Q.from in
  let env_schemas =
    Array.map
      (fun { Q.table; alias } ->
        ( Option.value alias ~default:table,
          Relation.schema (Database.relation db table) ))
      from
  in
  let singles =
    match q.Q.where with
    | None -> []
    | Some w ->
        List.filter_map
          (fun ast ->
            match E.compile env_schemas ast with
            | comp when comp.E.tables = [ position ] -> Some (ast, comp)
            | _ -> None
            | exception Invalid_argument _ -> None)
          (conjuncts w)
  in
  let rel = Database.relation db from.(position).Q.table in
  let env = Array.make (Array.length from) [||] in
  let rows_passing preds =
    let rows = ref [] in
    for row = Relation.cardinality rel - 1 downto 0 do
      env.(position) <- Relation.tuple rel row;
      if List.for_all (fun (_, c) -> E.is_true (c.E.eval env)) preds then
        rows := row :: !rows
    done;
    !rows
  in
  let fp_rows = rows_passing singles in
  let fp_flips =
    if fp_rows <> [] then []
    else
      List.filter_map
        (fun (ast, _) ->
          match
            (column_of_single env_schemas position ast, satisfying_value ast)
          with
          | Some col, Some v ->
              let others = List.filter (fun (a, _) -> a != ast) singles in
              let near = rows_passing others in
              if near = [] then None else Some (col, v, near)
          | _ -> None)
        singles
  in
  { fp_relation = from.(position).Q.table; fp_rows; fp_flips }

let generate_query_aware ?(config = default_config) ?(uniform_share = 0.25)
    ~rng ~queries db ~n =
  let weights = Hashtbl.create 64 in
  let per_query_cells = Hashtbl.create 64 in
  List.iteri
    (fun qi q ->
      let cells = referenced_cells db q in
      Hashtbl.replace per_query_cells qi cells;
      List.iter
        (fun cell ->
          Hashtbl.replace weights cell
            (1 + Option.value (Hashtbl.find_opt weights cell) ~default:0))
        cells)
    queries;
  let cells = Array.of_list (Hashtbl.fold (fun k v acc -> (k, v) :: acc) weights []) in
  if Array.length cells = 0 then generate ~config ~rng db ~n
  else begin
    let total_weight = Array.fold_left (fun a (_, w) -> a + w) 0 cells in
    let pick_cell () =
      let target = Rng.int rng total_weight in
      let rec go i acc =
        let _, w = cells.(i) in
        if target < acc + w then fst cells.(i) else go (i + 1) (acc + w)
      in
      go 0 0
    in
    let query_arr = Array.of_list queries in
    let footprints = Hashtbl.create 256 in
    let footprint qi position =
      match Hashtbl.find_opt footprints (qi, position) with
      | Some f -> f
      | None ->
          let f = footprint_rows db query_arr.(qi) position in
          Hashtbl.replace footprints (qi, position) f;
          f
    in
    let uniform = uniform_draw config ~rng db in
    let next_query = ref 0 in
    let cell_change relation row col =
      let r = Database.relation db relation in
      let value = perturbed_value rng config r row col in
      Delta.Cell_change { relation; row; col; value }
    in
    let weighted_cell () =
      let relation, col = pick_cell () in
      let r = Database.relation db relation in
      let row = Rng.int rng (Relation.cardinality r) in
      if Rng.float rng 1.0 < config.row_drop_fraction then
        Delta.Row_drop { relation; row }
      else cell_change relation row col
    in
    (* Round-robin over queries: perturb a cell inside the query's own
       footprint so even highly selective queries get conflicting
       neighbors — the paper's §7.2 "choose the support so edges are
       non-empty" direction. *)
    let targeted () =
      let qi = !next_query mod Array.length query_arr in
      incr next_query;
      let q = query_arr.(qi) in
      let n_from = List.length q.Qp_relational.Query.from in
      let position = Rng.int rng n_from in
      let { fp_relation = relation; fp_rows = rows; fp_flips } =
        footprint qi position
      in
      match (rows, fp_flips) with
      | [], [] -> weighted_cell ()
      | [], flips ->
          (* No row matches the query here: flip a near-miss row into
             the result instead. *)
          let col, v, near = List.nth flips (Rng.int rng (List.length flips)) in
          let row = List.nth near (Rng.int rng (List.length near)) in
          Delta.Cell_change { relation; row; col; value = v }
      | rows, _ ->
          let row = List.nth rows (Rng.int rng (List.length rows)) in
          let norm_rel = String.lowercase_ascii relation in
          let this_table_cols =
            List.filter_map
              (fun (t, c) -> if t = norm_rel then Some c else None)
              (Option.value (Hashtbl.find_opt per_query_cells qi) ~default:[])
          in
          (match this_table_cols with
          | [] -> weighted_cell ()
          | cols ->
              let col = List.nth cols (Rng.int rng (List.length cols)) in
              if Rng.float rng 1.0 < config.row_drop_fraction then
                Delta.Row_drop { relation; row }
              else cell_change relation row col)
    in
    let draw () =
      let u = Rng.float rng 1.0 in
      if u < uniform_share then uniform ()
      else if u < uniform_share +. 0.25 then weighted_cell ()
      else targeted ()
    in
    dedup_loop db ~n ~draw
  end
