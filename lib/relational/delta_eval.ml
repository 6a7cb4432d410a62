(* --- strategies ------------------------------------------------------ *)

type group = { acc : Agg_state.acc; mutable base_out : Value.t array option }

type grouped_state = {
  groups : (Value.t array, group) Hashtbl.t;
  global : bool;
}

type strategy =
  | Rowwise
  | Rowwise_distinct of (Value.t array, int) Hashtbl.t
  | Grouped of grouped_state
  | Limited of { k : int; base_rows : Value.t array array }
      (* plain LIMIT-k query: the full sorted projected multiset; a
         delta changes the answer iff it changes the first k rows *)
  | Fallback

type joins = {
  all : unit -> Expr.env list;
  fixed : int * Relation.tuple -> Expr.env list;
}

type t = {
  db : Database.t;
  plan : Eval.plan;
  joins_of : Eval.plan -> Database.t -> joins;
      (** builds the enumerator over any instance (the fallback's) *)
  joins : joins;  (** [joins_of plan db] *)
  col : Col_eval.t option;
      (** the columnar state behind [joins], whose pre-checks answer
          most deltas without a join; [None] under {!prepare_with} *)
  positions : (string, int list) Hashtbl.t;  (** table name -> FROM levels *)
  strategy : strategy;
  referenced : bool array array;
      (** per level, per column: does the query read this column?
          Powers the unreferenced-cell short circuit. *)
  filtered : bool array array;
      (** per level, per column: does the WHERE clause read it? *)
  mutable resolved : (string * (int list * Relation.t) option) list;
      (** per-delta resolution of a relation name to its FROM levels
          and relation: a database has a handful of relations, so a
          few string comparisons replace the hashing and lowercasing
          lookups on every delta *)
  mutable base : Result_set.t option;
  mutable skipped : int;  (** deltas on no [FROM] table *)
  mutable unreferenced : int;  (** cell changes the query never reads *)
  mutable precheck_empty : int;  (** proven empty by the pre-checks *)
  mutable joined : int;  (** decided by a join or a re-evaluation *)
}

type decisions = {
  skipped : int;
  unreferenced : int;
  precheck_empty : int;
  joined : int;
}

let decisions (t : t) =
  {
    skipped = t.skipped;
    unreferenced = t.unreferenced;
    precheck_empty = t.precheck_empty;
    joined = t.joined;
  }

let base_result core =
  match core.base with
  | Some r -> r
  | None ->
      let r = Eval.result_of_envs core.plan (core.joins.all ()) in
      core.base <- Some r;
      r

let strategy_name_of = function
  | Rowwise -> "rowwise"
  | Rowwise_distinct _ -> "rowwise-distinct"
  | Grouped _ -> "grouped"
  | Limited _ -> "limited"
  | Fallback -> "fallback"

let strategy_name t = strategy_name_of t.strategy

(* Grouped answers stay per-key comparable only when every selected
   field is itself a group key; then output rows are pairwise distinct
   and a changed group cannot be masked by another group's identical
   row. *)
let fields_are_group_keys q =
  List.for_all
    (function
      | Query.Field (e, _) -> List.exists (fun g -> g = e) q.Query.group_by
      | Query.Aggregate _ -> true)
    q.Query.select

let table_positions q =
  let positions = Hashtbl.create 4 in
  List.iteri
    (fun i { Query.table; _ } ->
      let key = String.lowercase_ascii table in
      let cur = Option.value (Hashtbl.find_opt positions key) ~default:[] in
      Hashtbl.replace positions key (cur @ [ i ]))
    q.Query.from;
  positions

(* Per level, per column: is it read by one of [exprs]? *)
let columns_read plan exprs =
  let env_schemas = Eval.from_env plan in
  let refs =
    Array.map (fun (_, s) -> Array.make (Schema.arity s) false) env_schemas
  in
  List.iter
    (fun e ->
      List.iter
        (fun cr ->
          let lvl, col = Expr.resolve env_schemas cr in
          refs.(lvl).(col) <- true)
        (Expr.columns e))
    exprs;
  refs

(* Which (level, column) cells can influence the answer: every column
   referenced by the WHERE clause, the select items, the GROUP BY keys
   or the aggregate arguments. A Cell_change on an unreferenced column
   cannot change the answer (row multiplicities are unchanged and no
   output or predicate reads the cell). *)
let referenced_columns plan q =
  columns_read plan
    (Option.to_list q.Query.where
    @ List.filter_map
        (function
          | Query.Field (e, _) -> Some e
          | Query.Aggregate (fn, _) -> (
              match fn with
              | Query.Count_star -> None
              | Query.Count e | Query.Count_distinct e | Query.Sum e
              | Query.Avg e | Query.Min e | Query.Max e ->
                  Some e))
        q.Query.select
    @ q.Query.group_by)

let is_plain q =
  (not (Query.has_aggregate q))
  && q.Query.group_by = [] && not q.Query.distinct

let choose_strategy plan q envs positions =
  let self_join =
    Hashtbl.fold (fun _ ps b -> b || List.length ps > 1) positions false
  in
  if self_join then Fallback
  else
    match q.Query.limit with
    | Some k when is_plain q ->
        let base_rows =
          Array.of_list (List.map (Eval.project plan) envs)
        in
        Array.sort Result_set.compare_rows base_rows;
        Limited { k; base_rows }
    | Some _ -> Fallback
    | None ->
        if Query.has_aggregate q || q.Query.group_by <> [] then
          if q.Query.distinct then Fallback
          else if
            q.Query.group_by = []
            && List.exists
                 (function Query.Field _ -> true | Query.Aggregate _ -> false)
                 q.Query.select
          then Fallback
          else if not (fields_are_group_keys q) then Fallback
          else begin
            let groups = Hashtbl.create 64 in
            List.iter
              (fun env ->
                let key = Eval.group_key plan env in
                let g =
                  match Hashtbl.find_opt groups key with
                  | Some g -> g
                  | None ->
                      let g =
                        {
                          acc = Agg_state.create (Eval.agg_kinds plan);
                          base_out = None;
                        }
                      in
                      Hashtbl.add groups key g;
                      g
                in
                Agg_state.add g.acc (Eval.agg_row plan env))
              envs;
            Grouped { groups; global = q.Query.group_by = [] }
          end
        else if q.Query.distinct then begin
          let counts = Hashtbl.create 256 in
          List.iter
            (fun env ->
              let row = Eval.project plan env in
              let cur = Option.value (Hashtbl.find_opt counts row) ~default:0 in
              Hashtbl.replace counts row (cur + 1))
            envs;
          Rowwise_distinct counts
        end
        else Rowwise

let make db q plan joins_of joins col =
  let positions = table_positions q in
  let self_join =
    Hashtbl.fold (fun _ ps b -> b || List.length ps > 1) positions false
  in
  let needs_envs =
    (not self_join)
    && ((Query.has_aggregate q || q.Query.group_by <> [] || q.Query.distinct)
        && q.Query.limit = None
       || (is_plain q && q.Query.limit <> None))
  in
  let envs = if needs_envs then joins.all () else [] in
  let strategy = choose_strategy plan q envs positions in
  (* The envs were just enumerated; hand them to the columnar engine so
     its per-delta emptiness pre-check needn't enumerate them again. *)
  (match col with
  | Some col when needs_envs -> Col_eval.seed_participating col envs
  | _ -> ());
  {
    db;
    plan;
    joins_of;
    joins;
    col;
    positions;
    strategy;
    referenced = referenced_columns plan q;
    filtered = columns_read plan (Option.to_list q.Query.where);
    resolved = [];
    base = None;
    skipped = 0;
    unreferenced = 0;
    precheck_empty = 0;
    joined = 0;
  }

let col_joins col =
  { all = (fun () -> Col_eval.join_all col); fixed = Col_eval.join_fixed col }

let prepare db q =
  let plan = Eval.prepare db q in
  let col = Col_eval.prepare plan db in
  make db q plan
    (fun plan db -> col_joins (Col_eval.prepare plan db))
    (col_joins col) (Some col)

let prepare_with joins_of db q =
  let plan = Eval.prepare db q in
  make db q plan joins_of (joins_of plan db) None

(* --- per-delta contribution ----------------------------------------- *)

let multiset_equal rows_a rows_b =
  List.length rows_a = List.length rows_b
  &&
  let sort l = List.sort Result_set.compare_rows l in
  List.for_all2
    (fun a b -> Result_set.compare_rows a b = 0)
    (sort rows_a) (sort rows_b)

let rowwise_differs core removed added =
  let proj envs = List.map (Eval.project core.plan) envs in
  not (multiset_equal (proj removed) (proj added))

let distinct_differs core counts removed added =
  let net = Hashtbl.create 8 in
  let bump env d =
    let row = Eval.project core.plan env in
    let cur = Option.value (Hashtbl.find_opt net row) ~default:0 in
    Hashtbl.replace net row (cur + d)
  in
  List.iter (fun env -> bump env (-1)) removed;
  List.iter (fun env -> bump env 1) added;
  Hashtbl.fold
    (fun row d acc ->
      acc
      ||
      let base = Option.value (Hashtbl.find_opt counts row) ~default:0 in
      base > 0 <> (base + d > 0))
    net false

let group_base_out g =
  match g.base_out with
  | Some out -> out
  | None ->
      let out = Agg_state.output g.acc in
      g.base_out <- Some out;
      out

let grouped_differs core gs removed added =
  let by_key = Hashtbl.create 8 in
  let file d env =
    let key = Eval.group_key core.plan env in
    let rem, add =
      Option.value (Hashtbl.find_opt by_key key) ~default:([], [])
    in
    let row = Eval.agg_row core.plan env in
    if d < 0 then Hashtbl.replace by_key key (row :: rem, add)
    else Hashtbl.replace by_key key (rem, row :: add)
  in
  List.iter (file (-1)) removed;
  List.iter (file 1) added;
  let arr_equal a b =
    Array.length a = Array.length b && Array.for_all2 Value.equal a b
  in
  Hashtbl.fold
    (fun key (rem, add) acc ->
      acc
      ||
      match Hashtbl.find_opt gs.groups key with
      | Some g -> (
          match Agg_state.output_with_delta g.acc ~removed:rem ~added:add with
          | None ->
              if gs.global then
                (* A global aggregate never loses its single output row;
                   it degrades to the empty-input row. *)
                not
                  (arr_equal (group_base_out g)
                     (Agg_state.empty_output (Eval.agg_kinds core.plan)))
              else true
          | Some out -> not (arr_equal (group_base_out g) out))
      | None ->
          (* A brand-new group key: only additions can reach it. *)
          add <> []
          &&
          if gs.global then
            let acc0 = Agg_state.create (Eval.agg_kinds core.plan) in
            List.iter (Agg_state.add acc0) add;
            not
              (arr_equal (Agg_state.output acc0)
                 (Agg_state.empty_output (Eval.agg_kinds core.plan)))
          else true)
    by_key false

(* LIMIT-k on a plain query truncates the canonically sorted projected
   multiset; the answer changes iff the first k rows of that sorted
   multiset change. Walk the base rows (minus removals, merged with
   additions) against the original first k — O(k + |delta rows|). *)
let limited_differs core k base_rows removed added =
  let proj envs =
    List.sort Result_set.compare_rows
      (List.map (Eval.project core.plan) envs)
  in
  let rem = ref (proj removed) and add = ref (proj added) in
  let nb = Array.length base_rows in
  let new_len = nb - List.length !rem + List.length !add in
  let kept = min k nb and kept' = min k new_len in
  if kept <> kept' then true
  else begin
    (* Next base row surviving removal. Removed rows are contributions
       of a stored tuple, so each occurs in the base multiset; both
       sequences are sorted, so equal heads cancel. *)
    let bi = ref 0 in
    let rec base_next () =
      if !bi >= nb then None
      else
        match !rem with
        | r :: rest when Result_set.compare_rows r base_rows.(!bi) = 0 ->
            incr bi;
            rem := rest;
            base_next ()
        | _ -> Some base_rows.(!bi)
    in
    let differs = ref false in
    let taken = ref 0 in
    while (not !differs) && !taken < kept' do
      let next =
        match (base_next (), !add) with
        | None, [] -> None (* unreachable: kept' rows always exist *)
        | Some b, [] ->
            incr bi;
            Some b
        | None, a :: rest ->
            add := rest;
            Some a
        | Some b, a :: rest ->
            if Result_set.compare_rows b a <= 0 then begin
              incr bi;
              Some b
            end
            else begin
              add := rest;
              Some a
            end
      in
      (match next with
      | None -> differs := true
      | Some row ->
          if Result_set.compare_rows row base_rows.(!taken) <> 0 then
            differs := true);
      incr taken
    done;
    !differs
  end

(* The definition itself: Q(D ⊕ δ) <> Q(D), both answers from this
   preparation's own enumerator. *)
let fallback_differs core delta =
  let perturbed = core.joins_of core.plan (Delta.apply core.db delta) in
  not
    (Result_set.equal
       (Eval.result_of_envs core.plan (perturbed.all ()))
       (base_result core))

(* The columnar path short-circuits cell changes on columns the query
   never reads: the answer is a function of the referenced cells and
   the row multiset, and a Cell_change alters neither. A prepare_with
   preparation stays free of this shortcut, so comparing it with the
   columnar path exercises it. *)
let unreferenced_cell core levels delta =
  match delta with
  | Delta.Row_drop _ -> false
  | Delta.Cell_change { col; _ } ->
      List.for_all (fun lvl -> not core.referenced.(lvl).(col)) levels

(* One entry per distinct relation name the deltas use: a short list
   compared with String.equal, which tests physical equality first.
   Positions are keyed by lowercased table name. *)
let resolve core name =
  let rec cached = function
    | [] -> None
    | (n, r) :: rest -> if String.equal n name then Some r else cached rest
  in
  match cached core.resolved with
  | Some r -> r
  | None ->
      let r =
        Option.map
          (fun levels -> (levels, Database.relation core.db name))
          (Hashtbl.find_opt core.positions (String.lowercase_ascii name))
      in
      core.resolved <- (name, r) :: core.resolved;
      r

(* The tuple a Cell_change adds to the resolved relation: row [row]
   with cell [col] set to [value], built only when a check or a join
   reads it. *)
let with_cell r row col value =
  let tup = Array.copy (Relation.tuple r row) in
  tup.(col) <- value;
  tup

let differs core delta =
  match resolve core (Delta.relation delta) with
  | None ->
      core.skipped <- core.skipped + 1;
      false
  | Some (levels, rel) -> (
      if Option.is_some core.col && unreferenced_cell core levels delta then begin
        core.unreferenced <- core.unreferenced + 1;
        false
      end
      else
        match (core.strategy, levels) with
        | Fallback, _ | _, ([] | _ :: _ :: _) ->
            (* Self-joins force the fallback strategy at prepare time,
               so only Fallback reaches here with several levels. *)
            core.joined <- core.joined + 1;
            fallback_differs core delta
        | strategy, [ level ] ->
            let row =
              match delta with
              | Delta.Cell_change { row; _ } | Delta.Row_drop { row; _ } -> row
            in
            (* Columnar fast path: when neither the old nor the new
               tuple can appear in a satisfying env, both contribution
               sets are empty and every incremental strategy answers
               "no change" on empty deltas. The old tuple is the stored
               row the delta names. A new tuple that differs from it only
               in a cell the WHERE clause never reads joins exactly where
               the old one does. *)
            let provably_empty =
              match (core.col, delta) with
              | None, _ -> false
              | Some ce, _ when Col_eval.row_participates ce level row -> false
              | Some ce, Delta.Cell_change { col; value; _ } ->
                  (not core.filtered.(level).(col))
                  || not (Col_eval.may_extend ce level (with_cell rel row col value))
              | Some _, Delta.Row_drop _ -> true
            in
            if provably_empty then begin
              core.precheck_empty <- core.precheck_empty + 1;
              false
            end
            else begin
              core.joined <- core.joined + 1;
              let removed = core.joins.fixed (level, Relation.tuple rel row) in
              let added =
                match delta with
                | Delta.Cell_change { col; value; _ } ->
                    core.joins.fixed (level, with_cell rel row col value)
                | Delta.Row_drop _ -> []
              in
              match strategy with
              | Rowwise -> rowwise_differs core removed added
              | Rowwise_distinct counts ->
                  distinct_differs core counts removed added
              | Grouped gs -> grouped_differs core gs removed added
              | Limited { k; base_rows } ->
                  limited_differs core k base_rows removed added
              | Fallback -> assert false
            end)
