(* Columnar join enumeration: the library's one join engine, behind
   every full answer (run) and every Delta_eval probe.

   Reuses Eval's plan (column resolution, predicate classification,
   equi detection) and replaces the row engine's data access:

   - per-level candidate sets come from vectorized predicate kernels
     over typed columns (Bitset masks combined word-wise), falling back
     to the conjunct's compiled closure for shapes without a kernel;
   - equi-join indexes hash raw ints (or dictionary strings) instead of
     boxed Value lists, with an explicit null bucket replicating the
     row engine's structural Null = Null probe matching;
   - join environments materialize as pointers to the source relation's
     row tuples (late materialization), so projection, grouping and
     aggregation share the row engine's code and values verbatim.

   "The row engine" below is the test-only qp_rel_oracle enumerator:
   both enumerate the same multiset of environments and build answers
   with Eval.result_of_envs, so results agree bit for bit. make
   check-rel-engines and bench conflict compare their hypergraphs. *)

module B = Bitset

type index =
  | Scan
  | Ix_int of { tbl : (int, int list) Hashtbl.t; nulls : int list }
  | Ix_str of { tbl : (string, int list) Hashtbl.t; nulls : int list }
  | Ix_gen of { tbl : (Value.t list, int list) Hashtbl.t }

type level = {
  table : Col_table.t;
  sel : int array;  (* candidate row ids after single-conjunct filters *)
  equis : (int * Expr.compiled * int option) list;
  index : index;
  singles : Expr.compiled array;  (* pinned-tuple re-check in join_fixed *)
}

type t = {
  plan : Eval.plan;
  levels : level array;
  cross : Expr.compiled array array;
  rev0 : (int, (Value.t, int list) Hashtbl.t) Hashtbl.t;
      (* lazily-built per-column bucket index over level 0's candidates:
         a pinned level joined to a level-0 column scans one bucket *)
  star : bool;
      (* every equi probe reads level 0 only (a bare column, an
         expression over level-0 columns, or a constant) and no cross
         filters exist anywhere: levels are independent given level 0,
         so per-level bucket emptiness decides joinability exactly *)
  mutable participating : (Relation.tuple, unit) Hashtbl.t array option;
      (* per level, the tuples (compared by value, as the row engine's
         hash probes do) occurring in at least one satisfying env *)
  mutable masks : B.t array option;
      (* star plans only: per level g >= 1, the level-0 candidates that
         find at least one partner at level g — the bit per candidate
         row makes "joins every level but f" a couple of bit tests *)
  joinable : (int, (Value.t, unit) Hashtbl.t) Hashtbl.t;
      (* star plans only, lazily per pinned level f: the keys of f's
         bare-column equi whose level-0 bucket holds a row joining every
         level but f (see star_dim_pin) *)
  scratch : Relation.tuple array;
      (* reusable one-binding env for the emptiness pre-checks; safe
         because star probes and per-level singles never read the other
         (stale) slots *)
}

(* --- vectorized predicate kernels ---------------------------------- *)

(* Every kernel produces the mask of rows where the predicate is true;
   NULL evaluates to false (bit clear), so AND/OR are plain word
   operations and NOT is complement — exactly the row engine's
   two-valued logic. *)

let apply_valid m = function None -> m | Some v -> B.inter_into m v; m

let all_valid n valid =
  match valid with
  | None -> B.full n
  | Some v ->
      let m = B.full n in
      B.inter_into m v;
      m

let int_range n data valid lo hi =
  if lo > hi then B.create n
  else apply_valid (B.init n (fun i -> lo <= data.(i) && data.(i) <= hi)) valid

let int_ne n data valid c =
  apply_valid (B.init n (fun i -> data.(i) <> c)) valid

(* Range of dictionary codes equivalent to [op v] on the strings. *)
let str_cmp_bounds dict op s =
  let r, exact = Col_table.rank dict s in
  match op with
  | Expr.Eq -> if exact then Some (r, r) else None
  | Expr.Ne -> assert false (* handled by caller *)
  | Expr.Lt -> Some (0, r - 1)
  | Expr.Le -> Some (0, r + (if exact then 0 else -1))
  | Expr.Gt -> Some (r + (if exact then 1 else 0), max_int)
  | Expr.Ge -> Some (r, max_int)

let cmp_kernel table ci op v =
  let n = Col_table.nrows table in
  match (Col_table.col table ci, v) with
  | _, Value.Null -> Some (B.create n) (* NULL comparand: all false *)
  | Col_table.C_int { data; valid }, Value.Int c -> (
      match op with
      | Expr.Eq -> Some (int_range n data valid c c)
      | Expr.Ne -> Some (int_ne n data valid c)
      | Expr.Lt ->
          Some (if c = min_int then B.create n else int_range n data valid min_int (c - 1))
      | Expr.Le -> Some (int_range n data valid min_int c)
      | Expr.Gt ->
          Some (if c = max_int then B.create n else int_range n data valid (c + 1) max_int)
      | Expr.Ge -> Some (int_range n data valid c max_int))
  | Col_table.C_int { valid; _ }, Value.Str _ -> (
      (* Value.compare (Int _) (Str _) < 0, constant per row. *)
      match op with
      | Expr.Lt | Expr.Le | Expr.Ne -> Some (all_valid n valid)
      | Expr.Eq | Expr.Gt | Expr.Ge -> Some (B.create n))
  | Col_table.C_int _, Value.Ratio _ -> None (* scalar fallback *)
  | Col_table.C_str { codes; dict; valid }, Value.Str s -> (
      match op with
      | Expr.Ne ->
          let r, exact = Col_table.rank dict s in
          Some (if exact then int_ne n codes valid r else all_valid n valid)
      | op -> (
          match str_cmp_bounds dict op s with
          | None -> Some (B.create n)
          | Some (lo, hi) -> Some (int_range n codes valid lo hi)))
  | Col_table.C_str { valid; _ }, (Value.Int _ | Value.Ratio _) -> (
      (* Value.compare (Str _) (numeric) > 0, constant per row. *)
      match op with
      | Expr.Gt | Expr.Ge | Expr.Ne -> Some (all_valid n valid)
      | Expr.Eq | Expr.Lt | Expr.Le -> Some (B.create n))

let between_kernel table ci lo hi =
  let n = Col_table.nrows table in
  match (lo, hi) with
  | Value.Null, _ | _, Value.Null -> Some (B.create n)
  | _ -> (
      match Col_table.col table ci with
      | Col_table.C_int { data; valid } ->
          let lo_bound =
            match lo with
            | Value.Int a -> Some a
            | Value.Str _ -> Some max_int (* Str <= Int never: empty below *)
            | _ -> None
          and hi_bound =
            match hi with
            | Value.Int b -> Some b
            | Value.Str _ -> Some max_int (* Int <= Str always *)
            | _ -> None
          in
          (match (lo, lo_bound, hi_bound) with
          | Value.Str _, _, _ -> Some (B.create n)
          | _, Some a, Some b -> Some (int_range n data valid a b)
          | _ -> None)
      | Col_table.C_str { codes; dict; valid } ->
          let lo_code =
            match lo with
            | Value.Str a -> Some (fst (Col_table.rank dict a))
            | Value.Int _ | Value.Ratio _ -> Some 0 (* numeric <= Str always *)
            | Value.Null -> None
          and hi_code =
            match hi with
            | Value.Str b ->
                let r, exact = Col_table.rank dict b in
                Some (r + if exact then 0 else -1)
            | Value.Int _ | Value.Ratio _ -> Some (-1) (* Str <= numeric never *)
            | Value.Null -> None
          in
          (match (lo_code, hi_code) with
          | Some a, Some b -> Some (int_range n codes valid a b)
          | _ -> None))

let in_list_kernel table ci vs =
  let n = Col_table.nrows table in
  match Col_table.col table ci with
  | Col_table.C_int { data; valid } ->
      let ints =
        List.filter_map (function Value.Int i -> Some i | _ -> None) vs
      in
      Some
        (apply_valid
           (B.init n (fun i -> List.exists (fun c -> data.(i) = c) ints))
           valid)
  | Col_table.C_str { codes; dict; valid } ->
      let mem =
        Array.map (fun s -> List.exists (Value.equal (Value.Str s)) vs) dict
      in
      Some
        (apply_valid
           (B.init n (fun i -> Array.length mem > 0 && mem.(codes.(i))))
           valid)

let like_kernel table ci pattern =
  let n = Col_table.nrows table in
  match Col_table.col table ci with
  | Col_table.C_int _ -> Some (B.create n) (* LIKE on non-strings: false *)
  | Col_table.C_str { codes; dict; valid } ->
      let mem = Array.map (fun s -> Like.matches ~pattern s) dict in
      Some
        (apply_valid
           (B.init n (fun i -> Array.length mem > 0 && mem.(codes.(i))))
           valid)

let truthy_kernel table ci =
  let n = Col_table.nrows table in
  match Col_table.col table ci with
  | Col_table.C_int { data; valid } ->
      apply_valid (B.init n (fun i -> data.(i) <> 0)) valid
  | Col_table.C_str { valid; _ } -> all_valid n valid (* any string is true *)

(* Compile one single-level conjunct AST to a mask, or None when no
   kernel shape applies (the caller then uses the compiled closure). *)
let rec kernel env_schemas lvl table e =
  let n = Col_table.nrows table in
  let col_of = function
    | Expr.Col cr -> (
        match Expr.resolve env_schemas cr with
        | l, c when l = lvl -> Some c
        | _ -> None
        | exception Invalid_argument _ -> None)
    | _ -> None
  in
  let const_of = function Expr.Const v -> Some v | _ -> None in
  match e with
  | Expr.Const v -> Some (if Expr.is_true v then B.full n else B.create n)
  | Expr.Col _ as c -> Option.map (truthy_kernel table) (col_of c)
  | Expr.Cmp (op, a, b) -> (
      match (col_of a, const_of b) with
      | Some ci, Some v -> cmp_kernel table ci op v
      | _ -> (
          match (const_of a, col_of b) with
          | Some v, Some ci ->
              (* flip the comparison around the column *)
              let flipped =
                match op with
                | Expr.Eq -> Expr.Eq
                | Expr.Ne -> Expr.Ne
                | Expr.Lt -> Expr.Gt
                | Expr.Le -> Expr.Ge
                | Expr.Gt -> Expr.Lt
                | Expr.Ge -> Expr.Le
              in
              cmp_kernel table ci flipped v
          | _ -> None))
  | Expr.Between (e, lo, hi) -> (
      match (col_of e, const_of lo, const_of hi) with
      | Some ci, Some l, Some h -> between_kernel table ci l h
      | _ -> None)
  | Expr.In_list (e, vs) -> (
      match col_of e with Some ci -> in_list_kernel table ci vs | None -> None)
  | Expr.Like (e, pattern) -> (
      match col_of e with
      | Some ci -> like_kernel table ci pattern
      | None -> None)
  | Expr.And (a, b) -> (
      match (kernel env_schemas lvl table a, kernel env_schemas lvl table b) with
      | Some ma, Some mb ->
          B.inter_into ma mb;
          Some ma
      | _ -> None)
  | Expr.Or (a, b) -> (
      match (kernel env_schemas lvl table a, kernel env_schemas lvl table b) with
      | Some ma, Some mb ->
          B.union_into ma mb;
          Some ma
      | _ -> None)
  | Expr.Not a -> (
      match kernel env_schemas lvl table a with
      | Some m ->
          B.complement_into m;
          Some m
      | None -> None)
  | Expr.Arith _ -> None

(* --- level construction -------------------------------------------- *)

let bucket_push tbl k row =
  Hashtbl.replace tbl k (row :: Option.value (Hashtbl.find_opt tbl k) ~default:[])

let build_index table sel equis =
  match equis with
  | [] -> Scan
  | [ (key_col, _, _) ] -> (
      match Col_table.col table key_col with
      | Col_table.C_int { data; valid } ->
          let tbl = Hashtbl.create (max 16 (Array.length sel)) in
          let nulls = ref [] in
          Array.iter
            (fun row ->
              match valid with
              | Some v when not (B.get v row) -> nulls := row :: !nulls
              | _ -> bucket_push tbl data.(row) row)
            sel;
          Ix_int { tbl; nulls = !nulls }
      | Col_table.C_str { codes; dict; valid } ->
          let tbl = Hashtbl.create (max 16 (Array.length sel)) in
          let nulls = ref [] in
          Array.iter
            (fun row ->
              match valid with
              | Some v when not (B.get v row) -> nulls := row :: !nulls
              | _ -> bucket_push tbl dict.(codes.(row)) row)
            sel;
          Ix_str { tbl; nulls = !nulls })
  | equis ->
      let tbl = Hashtbl.create (max 16 (Array.length sel)) in
      Array.iter
        (fun row ->
          let tup = Col_table.tuple table row in
          let key = List.map (fun (key_col, _, _) -> tup.(key_col)) equis in
          bucket_push tbl key row)
        sel;
      Ix_gen { tbl }

let build_level plan db lvl =
  let env_schemas = Eval.from_env plan in
  let name = (Eval.table_names plan).(lvl) in
  let table = Col_table.of_relation_cached (Database.relation db name) in
  let n = Col_table.nrows table in
  let singles = Eval.single_filters plan lvl in
  let sel =
    (* No single-table conjunct: every row is a candidate, no mask. *)
    if singles = [] then Array.init n Fun.id
    else begin
      let mask = B.full n in
      let scratch = Array.make (Array.length env_schemas) [||] in
      List.iter
        (fun { Eval.f_ast; f_comp } ->
          match kernel env_schemas lvl table f_ast with
          | Some m -> B.inter_into mask m
          | None ->
              B.iter
                (fun i ->
                  scratch.(lvl) <- Col_table.tuple table i;
                  if not (Expr.is_true (f_comp.Expr.eval scratch)) then
                    B.clear mask i)
                mask)
        singles;
      B.to_array mask
    end
  in
  let equis = Eval.level_equis plan lvl in
  {
    table;
    sel;
    equis;
    index = build_index table sel equis;
    singles = Array.of_list (List.map (fun f -> f.Eval.f_comp) singles);
  }

let prepare plan db =
  let levels =
    Array.init (Array.length (Eval.from_env plan)) (build_level plan db)
  in
  let cross = Eval.cross_compiled plan in
  (* Classifier (not Eval's probe_col0, which only spots bare level-0
     columns): a probe whose [tables] is [] (constant) or [0] keeps the
     level independent of every level but 0. Level 0 itself never
     carries equis (probes reference earlier levels). *)
  let star =
    Array.for_all (fun c -> Array.length c = 0) cross
    && Array.for_all
         (fun lv ->
           List.for_all
             (fun (_, probe, _) ->
               match probe.Expr.tables with [] | [ 0 ] -> true | _ -> false)
             lv.equis)
         levels
  in
  {
    plan;
    levels;
    cross;
    rev0 = Hashtbl.create 4;
    star;
    participating = None;
    masks = None;
    joinable = Hashtbl.create 4;
    scratch = Array.make (Array.length levels) [||];
  }

let plan t = t.plan

(* --- join enumeration ---------------------------------------------- *)

let rev0_index t c0 =
  match Hashtbl.find_opt t.rev0 c0 with
  | Some idx -> idx
  | None ->
      let lv = t.levels.(0) in
      let idx =
        if Array.length lv.sel = Col_table.nrows lv.table then
          (* No level-0 filter: the cached full-table index is exactly
             the selection-restricted one, shared across queries. *)
          Col_table.rev_index lv.table c0
        else begin
          let idx = Hashtbl.create 256 in
          (match Col_table.col lv.table c0 with
          | Col_table.C_int { data; valid } ->
              Array.iter
                (fun row ->
                  let k =
                    match valid with
                    | Some v when not (B.get v row) -> Value.Null
                    | _ -> Value.Int data.(row)
                  in
                  bucket_push idx k row)
                lv.sel
          | Col_table.C_str { codes; dict; valid } ->
              Array.iter
                (fun row ->
                  let k =
                    match valid with
                    | Some v when not (B.get v row) -> Value.Null
                    | _ -> Value.Str dict.(codes.(row))
                  in
                  bucket_push idx k row)
                lv.sel);
          idx
        end
      in
      Hashtbl.replace t.rev0 c0 idx;
      idx

let probe_rows index (key : Value.t list) =
  match (index, key) with
  | Ix_int { tbl; nulls }, [ v ] -> (
      match v with
      | Value.Int i -> Option.value (Hashtbl.find_opt tbl i) ~default:[]
      | Value.Null -> nulls (* Null = Null matches, like the row probe *)
      | Value.Str _ | Value.Ratio _ -> [])
  | Ix_str { tbl; nulls }, [ v ] -> (
      match v with
      | Value.Str s -> Option.value (Hashtbl.find_opt tbl s) ~default:[]
      | Value.Null -> nulls
      | Value.Int _ | Value.Ratio _ -> [])
  | Ix_gen { tbl }, key -> Option.value (Hashtbl.find_opt tbl key) ~default:[]
  | Scan, _ -> assert false
  | (Ix_int _ | Ix_str _), _ -> assert false

let passes env filters =
  Array.for_all (fun c -> Expr.is_true (c.Expr.eval env)) filters

(* Does level [g] (>= 1) offer at least one tuple for the level-0 row
   bound in [env]? Star probes read only level 0, so this is a single
   bucket lookup; a Scan level is an unkeyed cross product over its
   candidates. Single-equi levels skip the key-list allocation. *)
let level_has_match t env g =
  let lv = t.levels.(g) in
  match (lv.index, lv.equis) with
  | Scan, _ -> Array.length lv.sel > 0
  | Ix_int { tbl; nulls }, [ (_, probe, _) ] -> (
      match probe.Expr.eval env with
      | Value.Int i -> Hashtbl.mem tbl i
      | Value.Null -> nulls <> []
      | Value.Str _ | Value.Ratio _ -> false)
  | Ix_str { tbl; nulls }, [ (_, probe, _) ] -> (
      match probe.Expr.eval env with
      | Value.Str s -> Hashtbl.mem tbl s
      | Value.Null -> nulls <> []
      | Value.Int _ | Value.Ratio _ -> false)
  | index, equis ->
      probe_rows index (List.map (fun (_, probe, _) -> probe.Expr.eval env) equis)
      <> []

(* One pass per level over level 0's candidates: bit [r] of mask [g]
   says candidate row [r] finds a partner at level [g]. Levels probed
   on a bare level-0 column run over the unboxed column directly. *)
let level_masks t =
  match t.masks with
  | Some m -> m
  | None ->
      let n = Array.length t.levels in
      let lv0 = t.levels.(0) in
      let n0 = Col_table.nrows lv0.table in
      let masks =
        Array.init n (fun g ->
            if g = 0 then B.create 0
            else
              let m = B.create n0 in
              let lv = t.levels.(g) in
              let generic () =
                let env = Array.make n [||] in
                Array.iter
                  (fun r ->
                    env.(0) <- Col_table.tuple lv0.table r;
                    if level_has_match t env g then B.set m r)
                  lv0.sel
              in
              (let bare, rest =
                 List.partition (fun (_, _, c0) -> c0 <> None) lv.equis
               in
               let rest_const =
                 List.for_all
                   (fun (_, probe, _) -> probe.Expr.tables = [])
                   rest
               in
               (* Constant probes ([tables] = []) never read the env. *)
               let consts () =
                 List.map
                   (fun (kc, probe, _) -> (kc, probe.Expr.eval t.scratch))
                   rest
               in
               let matches_consts consts tup =
                 List.for_all (fun (kc, v) -> tup.(kc) = v) consts
               in
               match (lv.index, bare) with
               | Scan, _ ->
                   if Array.length lv.sel > 0 then
                     Array.iter (fun r -> B.set m r) lv0.sel
               | _, [ (key_col, _, Some c0) ] when rest_const ->
                   (* One bare-column equi (plus constant equis): build
                      from the (small) dim side — each candidate partner
                      passing the constants selects a reverse bucket of
                      level-0 rows. Null keys land on the Null bucket,
                      matching the probe's Null = Null rule. *)
                   let rev = rev0_index t c0 in
                   let consts = consts () in
                   Array.iter
                     (fun drow ->
                       let tup = Col_table.tuple lv.table drow in
                       if matches_consts consts tup then
                         match Hashtbl.find_opt rev tup.(key_col) with
                         | Some rows -> List.iter (fun r -> B.set m r) rows
                         | None -> ())
                     lv.sel
               | _, [] when rest_const ->
                   (* Purely constant-keyed level: every candidate
                      level-0 row joins iff some partner passes. *)
                   let consts = consts () in
                   if
                     Array.exists
                       (fun drow ->
                         matches_consts consts (Col_table.tuple lv.table drow))
                       lv.sel
                   then Array.iter (fun r -> B.set m r) lv0.sel
               | _ -> generic ());
               m)
      in
      t.masks <- Some masks;
      masks

let enumerate t fixed =
  let n = Array.length t.levels in
  let env = Array.make n [||] in
  let out = ref [] in
  (* The pinned tuple must pass its level's single conjuncts, exactly
     as a one-tuple candidate set would. *)
  let fixed_ok =
    match fixed with
    | None -> true
    | Some (flvl, tup) ->
        let scratch = Array.make n [||] in
        scratch.(flvl) <- tup;
        passes scratch t.levels.(flvl).singles
  in
  if not fixed_ok then []
  else begin
    (* When the pinned level joins level 0 directly on a column,
       restrict the level-0 scan to the matching bucket. *)
    let level0_bucket =
      match fixed with
      | Some (flvl, tup) when flvl > 0 -> (
          match
            List.find_opt (fun (_, _, c0) -> c0 <> None) t.levels.(flvl).equis
          with
          | Some (key_col, _, Some c0) ->
              Some
                (Option.value
                   (Hashtbl.find_opt (rev0_index t c0) tup.(key_col))
                   ~default:[])
          | _ -> None)
      | _ -> None
    in
    let rec extend lvl =
      if lvl = n then out := Array.copy env :: !out
      else
        let lv = t.levels.(lvl) in
        let cross = t.cross.(lvl) in
        let visit_tup tup =
          env.(lvl) <- tup;
          if passes env cross then extend (lvl + 1)
        in
        let visit_row row = visit_tup (Col_table.tuple lv.table row) in
        match fixed with
        | Some (flvl, tup) when flvl = lvl ->
            if
              List.for_all
                (fun (key_col, probe, _) ->
                  (* structural equality, as the row engine's Hashtbl
                     probe applies to Value lists *)
                  probe.Expr.eval env = tup.(key_col))
                lv.equis
            then visit_tup tup
        | _ -> (
            match lv.index with
            | Scan -> (
                (* Star plans: the level masks decide, per level-0
                   candidate, whether every later level has a partner —
                   rows failing any mask produce no env, so skip them
                   before touching a tuple. A pinned level is exempt
                   ([skip]): join_fixed admits tuples outside its
                   candidate set, which the masks never see. *)
                let star_iter skip iter coll =
                  if t.star && n > 1 then begin
                    let masks = level_masks t in
                    iter
                      (fun r ->
                        let ok = ref true in
                        let g = ref 1 in
                        while !ok && !g < n do
                          if !g <> skip then ok := B.get masks.(!g) r;
                          incr g
                        done;
                        if !ok then visit_row r)
                      coll
                  end
                  else iter visit_row coll
                in
                match (lvl, level0_bucket, fixed) with
                | 0, Some bucket, Some (flvl, _) ->
                    star_iter flvl List.iter bucket
                | 0, Some bucket, None -> List.iter visit_row bucket
                | 0, None, None -> star_iter (-1) Array.iter lv.sel
                | 0, None, Some (flvl, _) when flvl > 0 ->
                    star_iter flvl Array.iter lv.sel
                | _ -> Array.iter visit_row lv.sel)
            | index ->
                let key =
                  List.map (fun (_, probe, _) -> probe.Expr.eval env) lv.equis
                in
                List.iter visit_row (probe_rows index key))
    in
    extend 0;
    !out
  end

let join_all t = enumerate t None
let join_fixed t fixed = enumerate t (Some fixed)

let run db q =
  let plan = Eval.prepare db q in
  Eval.result_of_envs plan (join_all (prepare plan db))

(* --- per-delta emptiness pre-checks --------------------------------- *)

(* The per-delta scan spends most of its time proving that a changed
   tuple contributes nothing: join_fixed re-applies singles and probes
   every level for both the old and the new tuple, per delta. The
   checks below decide the common "contribution empty" case from
   precomputed state in a handful of hash lookups and bit tests.

   A pinned tuple's contribution is a value-level question — join_fixed
   pins by value, bypassing the pinned level's own candidate set — so
   the same test serves the old (stored) and the new (hypothetical)
   tuple of a delta.

   On star plans a pin costs a constant number of lookups, whatever the
   size of the fact table. Pinning level 0 is one bucket probe per
   remaining level. Pinning a dimension level f reads
   its joinable-key set, built once per preparation and level next to
   the level masks: every key of f's bare-column equi whose level-0
   bucket holds a row that joins every level but f. When f's other
   equis are all constant probes, the pin joins iff its key is in the
   set and its tuple matches those constants — one Hashtbl.mem instead
   of a bucket scan per delta. Levels with expression probes still scan
   the bucket. *)

let seed_participating_from t envs =
  let p = Array.map (fun _ -> Hashtbl.create 1024) t.levels in
  List.iter
    (fun env ->
      Array.iteri (fun lvl tup -> Hashtbl.replace p.(lvl) tup ()) env)
    envs;
  t.participating <- Some p

(* Star plans never consult [participating] (the index probes decide
   pins exactly), so don't pay for the table. *)
let seed_participating t envs =
  if (not t.star) && t.participating = None then seed_participating_from t envs

let participating t =
  match t.participating with
  | Some p -> p
  | None ->
      seed_participating_from t (enumerate t None);
      Option.get t.participating

(* The keys of [rev] whose bucket holds a row passing [completes]:
   built once per (preparation, pinned level) and cached. *)
let joinable_keys t flvl rev completes =
  match Hashtbl.find_opt t.joinable flvl with
  | Some keys -> keys
  | None ->
      let keys = Hashtbl.create (Hashtbl.length rev) in
      Hashtbl.iter
        (fun k rows -> if List.exists completes rows then Hashtbl.replace keys k ())
        rev;
      Hashtbl.replace t.joinable flvl keys;
      keys

(* Exact joinability of a tuple pinned at a star plan's level [flvl]
   (>= 1): some level-0 candidate must match every equi of [flvl]
   against the pinned tuple and find a partner at each remaining level
   (the mask bits). Candidates come from the reverse bucket of a
   bare-column equi; when every other equi is a constant probe the
   candidates need not be visited, as the joinable-key set answers for
   the whole bucket. A level with only expression probes has no such
   bucket and stays conservative. *)
let star_dim_pin t flvl tup =
  let lv = t.levels.(flvl) in
  let masks = level_masks t in
  let n = Array.length t.levels in
  let completes r =
    let ok = ref true in
    let g = ref 1 in
    while !ok && !g < n do
      if !g <> flvl then ok := B.get masks.(!g) r;
      incr g
    done;
    !ok
  in
  match lv.equis with
  | [] ->
      (* Unkeyed level: the pin joins iff any level-0 candidate
         completes at the remaining levels. *)
      Array.exists completes t.levels.(0).sel
  | equis -> (
      match List.find_opt (fun (_, _, c0) -> c0 <> None) equis with
      | Some ((key_col, _, Some c0) as chosen) ->
          let rev = rev0_index t c0 in
          let extra = List.filter (fun e -> e != chosen) equis in
          let env = t.scratch in
          let extra_match () =
            List.for_all
              (fun (kc, probe, _) -> probe.Expr.eval env = tup.(kc))
              extra
          in
          if List.for_all (fun (_, probe, _) -> probe.Expr.tables = []) extra
          then
            (* Constant probes never read [env]: check them once, after
               the key, as the bucket scan would. *)
            Hashtbl.mem (joinable_keys t flvl rev completes) tup.(key_col)
            && extra_match ()
          else
            List.exists
              (fun r ->
                completes r
                && begin
                     env.(0) <- Col_table.tuple t.levels.(0).table r;
                     extra_match ()
                   end)
              (Option.value (Hashtbl.find_opt rev tup.(key_col)) ~default:[])
      | _ -> true)

(* Emptiness of [join_fixed (flvl, tup)] without running it: [false] is
   always exact; [true] means "maybe nonempty" and the caller falls
   back to the full join. Star plans are decided exactly (modulo
   expression-probed pinned levels): pinning level 0 leaves one bucket
   probe per remaining level, and pinning a later level reduces to its
   joinable-key set (or its reverse bucket filtered by the masks). *)
let pin_may_join t flvl tup =
  let scratch = t.scratch in
  scratch.(flvl) <- tup;
  passes scratch t.levels.(flvl).singles
  &&
  if t.star then
    if flvl = 0 then begin
      let n = Array.length t.levels in
      let ok = ref true in
      let g = ref 1 in
      while !ok && !g < n do
        ok := level_has_match t scratch !g;
        incr g
      done;
      !ok
    end
    else star_dim_pin t flvl tup
  else if flvl > 0 then
    (* Non-star fallback: probes of this level that read a single
       level-0 column must hit a level-0 candidate; other levels are
       not consulted, so a [true] here stays conservative. *)
    List.for_all
      (fun (key_col, _, c0) ->
        match c0 with
        | None -> true
        | Some c0 ->
            Option.value
              (Hashtbl.find_opt (rev0_index t c0) tup.(key_col))
              ~default:[]
            <> [])
      t.levels.(flvl).equis
  else true

let tuple_participates t lvl tup =
  if t.star then pin_may_join t lvl tup
  else Hashtbl.mem (participating t).(lvl) tup

let may_extend = pin_may_join
