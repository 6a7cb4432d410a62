(* Columnar join enumeration: the library's one join engine, behind
   every full answer (run) and every Delta_eval probe.

   Reuses Eval's plan (column resolution, predicate classification,
   equi detection) and replaces the row engine's data access:

   - per-level candidate sets come from vectorized predicate kernels
     over typed columns (Bitset masks combined word-wise), falling back
     to the conjunct's compiled closure for shapes without a kernel;
   - a level probed through one equi reads the probed value's bucket
     of its column's key index (Col_table.keys: dense value ids with
     NULL as one more id, which replicates the row engine's structural
     Null = Null probe matching), filtered by the level's candidate
     mask, so a preparation builds no hash index; only levels probed
     through several equis hash boxed Value lists;
   - join environments materialize as pointers to the source relation's
     row tuples (late materialization), so projection, grouping and
     aggregation share the row engine's code and values verbatim.

   "The row engine" below is the test-only qp_rel_oracle enumerator:
   both enumerate the same multiset of environments and build answers
   with Eval.result_of_envs, so results agree bit for bit. make
   check-rel-engines and bench conflict compare their hypergraphs. *)

module B = Bitset

(* How a level's candidates are found from the levels before it, over
   its non-constant equis (constant equis are folded into its mask). *)
type index =
  | Scan  (* no such equi: every candidate *)
  | Ix_key of { key_col : int; probe : Expr.compiled }
      (* one: the probe's bucket of the column's key index, filtered by
         the level's mask — no per-preparation build *)
  | Ix_gen of {
      keyed : (int * Expr.compiled) list;  (* (key_col, probe) *)
      tbl : (Value.t list, int list) Hashtbl.t;
    }

(* A level's equis as the star pre-checks read them, fixed at prepare:
   the first bare level-0-column equi, the constant equis (their
   values evaluated once) and every other equi. *)
type probes = {
  bare : (int * int) option;  (* (key_col, level-0 column) *)
  consts : (int * Value.t) array;  (* (key_col, value) *)
  exprs : (int * Expr.compiled) list;  (* (key_col, probe) *)
}

type level = {
  table : Col_table.t;
  sel : int array;
      (* candidate row ids: passing the single-conjunct filters and the
         constant equis *)
  mask : B.t;  (* [sel] as a mask over the table's rows *)
  equis : (int * Expr.compiled * int option) list;
  probes : probes;
  index : index;
  singles : Expr.compiled array;  (* pinned-tuple re-check in join_fixed *)
}

type t = {
  levels : level array;
  cross : Expr.compiled array array;
  star : bool;
      (* every equi probe reads level 0 only (a bare column, an
         expression over level-0 columns, or a constant) and no cross
         filters exist anywhere: levels are independent given level 0,
         so per-level partner masks decide joinability exactly *)
  mutable participating : (Relation.tuple, unit) Hashtbl.t array option;
      (* per level, the tuples (compared by value, as the row engine's
         hash probes do) occurring in at least one satisfying env *)
  mutable masks : B.t array option;
      (* star plans only: per level g >= 1, the level-0 candidates that
         find at least one partner at level g *)
  ands : B.t option array;
      (* star plans only, lazily per level f: the level-0 candidates
         whose mask bit is set at every level but f (f = 0: at every
         level) — the rows that complete a join pinned at f *)
  joinable : B.t option array;
      (* star plans only, lazily per level f with a bare-column equi:
         the key ids (in that level-0 column's domain) of the rows of
         [ands.(f)] *)
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

(* Rows whose cell equals [v] under the equi probes' structural
   equality, where (unlike the Eq kernel) a NULL equals a NULL. *)
let equal_kernel table ci v =
  let n = Col_table.nrows table in
  match (Col_table.col table ci, v) with
  | (Col_table.C_int { valid; _ } | Col_table.C_str { valid; _ }), Value.Null ->
      let m = B.create n in
      Option.iter
        (fun valid ->
          B.union_into m valid;
          B.complement_into m)
        valid;
      m
  | Col_table.C_int { data; valid }, Value.Int c -> int_range n data valid c c
  | Col_table.C_str { codes; dict; valid }, Value.Str s -> (
      match Col_table.rank dict s with
      | r, true -> int_range n codes valid r r
      | _, false -> B.create n)
  | _ -> B.create n

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

let build_index table sel equis =
  match List.filter (fun (_, probe, _) -> probe.Expr.tables <> []) equis with
  | [] -> Scan
  | [ (key_col, probe, _) ] -> Ix_key { key_col; probe }
  | equis ->
      let tbl = Hashtbl.create (max 16 (Array.length sel)) in
      Array.iter
        (fun row ->
          let tup = Col_table.tuple table row in
          let key = List.map (fun (key_col, _, _) -> tup.(key_col)) equis in
          Hashtbl.replace tbl key
            (row :: Option.value (Hashtbl.find_opt tbl key) ~default:[]))
        sel;
      Ix_gen { keyed = List.map (fun (kc, probe, _) -> (kc, probe)) equis; tbl }

let probes_of equis =
  let bare =
    List.find_opt (fun (_, _, c0) -> Option.is_some c0) equis
  in
  let others =
    match bare with
    | Some b -> List.filter (fun e -> e != b) equis
    | None -> equis
  in
  let consts, exprs =
    List.partition (fun (_, probe, _) -> probe.Expr.tables = []) others
  in
  (* Constant probes never read the env. *)
  let env = [||] in
  {
    bare = Option.map (fun (key_col, _, c0) -> (key_col, Option.get c0)) bare;
    consts =
      Array.of_list
        (List.map (fun (kc, probe, _) -> (kc, probe.Expr.eval env)) consts);
    exprs = List.map (fun (kc, probe, _) -> (kc, probe)) exprs;
  }

let build_level plan db lvl =
  let env_schemas = Eval.from_env plan in
  let name = (Eval.table_names plan).(lvl) in
  let table = Col_table.of_relation_cached (Database.relation db name) in
  let n = Col_table.nrows table in
  let singles = Eval.single_filters plan lvl in
  let equis = Eval.level_equis plan lvl in
  let probes = probes_of equis in
  (* A constant equi filters the level like a single-table conjunct,
     under the probes' structural equality. *)
  let mask = B.full n in
  Array.iter
    (fun (kc, v) -> B.inter_into mask (equal_kernel table kc v))
    probes.consts;
  if singles <> [] then begin
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
      singles
  end;
  let sel =
    if singles = [] && probes.consts = [||] then Array.init n Fun.id
    else B.to_array mask
  in
  {
    table;
    sel;
    mask;
    equis;
    probes;
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
  let n = Array.length levels in
  {
    levels;
    cross;
    star;
    participating = None;
    masks = None;
    ands = Array.make n None;
    joinable = Array.make n None;
    scratch = Array.make n [||];
  }

(* --- join enumeration ---------------------------------------------- *)

(* The rows of [table] holding a value equal to [v] in column [col],
   in descending row order, that [keep] admits. *)
let iter_bucket table col v keep f =
  let id = Col_table.key_id table col v in
  if id >= 0 then begin
    let k = Col_table.keys table col in
    for i = k.Col_table.start.(id) to k.Col_table.start.(id + 1) - 1 do
      let r = k.Col_table.rows.(i) in
      if B.get keep r then f r
    done
  end

let exists_in_bucket table col v keep p =
  let id = Col_table.key_id table col v in
  id >= 0
  &&
  let k = Col_table.keys table col in
  let i = ref k.Col_table.start.(id) and stop = k.Col_table.start.(id + 1) in
  while
    !i < stop
    && not (B.get keep k.Col_table.rows.(!i) && p k.Col_table.rows.(!i))
  do
    incr i
  done;
  !i < stop

let gen_rows tbl keyed env =
  Option.value
    (Hashtbl.find_opt tbl (List.map (fun (_, probe) -> probe.Expr.eval env) keyed))
    ~default:[]

let passes env filters =
  Array.for_all (fun c -> Expr.is_true (c.Expr.eval env)) filters

(* Does level [g] (>= 1) offer at least one tuple for the level-0 row
   bound in [env]? Star probes read only level 0, so this is a single
   bucket probe; a Scan level is an unkeyed cross product over its
   candidates. *)
let level_has_match t env g =
  let lv = t.levels.(g) in
  match lv.index with
  | Scan -> Array.length lv.sel > 0
  | Ix_key { key_col; probe } ->
      exists_in_bucket lv.table key_col (probe.Expr.eval env) lv.mask (fun _ -> true)
  | Ix_gen { keyed; tbl } -> gen_rows tbl keyed env <> []

(* One mask per level g >= 1 over level 0's rows: bit [r] says
   candidate row [r] finds a partner at level [g]. A level keyed by a
   bare level-0 column and constants is filled from level 0's unboxed
   key ids: the partners' keys become a set of ids, and a row joins iff
   its own id is in it. *)
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
              let lv = t.levels.(g) in
              match lv.probes with
              | { bare = Some (key_col, c0); exprs = []; _ } ->
                  let k0 = Col_table.keys lv0.table c0 in
                  let kg = Col_table.keys lv.table key_col in
                  let partner_ids =
                    Col_table.translate lv0.table c0 lv.table key_col
                      (B.scatter lv.mask kg.Col_table.ids
                         (kg.Col_table.null_id + 1))
                  in
                  let m = B.gather partner_ids k0.Col_table.ids in
                  B.inter_into m lv0.mask;
                  m
              | { bare = None; exprs = []; _ } ->
                  (* Unkeyed or constant-keyed: every candidate joins iff
                     the level has one. *)
                  if Array.length lv.sel > 0 then lv0.mask else B.create n0
              | _ ->
                  let m = B.create n0 in
                  let env = Array.make n [||] in
                  B.iter
                    (fun r ->
                      env.(0) <- Col_table.tuple lv0.table r;
                      if level_has_match t env g then B.set m r)
                    lv0.mask;
                  m)
      in
      t.masks <- Some masks;
      masks

(* [ands.(f)], built on first use: level 0's candidates AND every mask
   but level f's. *)
let ands t f =
  match t.ands.(f) with
  | Some a -> a
  | None ->
      let lv0 = t.levels.(0) in
      let a = B.create (Col_table.nrows lv0.table) in
      B.union_into a lv0.mask;
      Array.iteri
        (fun g m -> if g > 0 && g <> f then B.inter_into a m)
        (level_masks t);
      t.ands.(f) <- Some a;
      a

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
            | Scan when lvl = 0 -> (
                (* Star plans: rows failing a partner mask produce no
                   env, so only the AND of the masks is visited. A
                   pinned level is exempt: join_fixed admits tuples
                   outside its candidate set, which the masks never
                   see. When the pinned level joins a level-0 column,
                   only that value's bucket is scanned. *)
                let pinned = match fixed with Some (f, _) -> f | None -> 0 in
                let keep = if t.star && n > 1 then ands t pinned else lv.mask in
                match fixed with
                | Some (flvl, tup) -> (
                    match t.levels.(flvl).probes.bare with
                    | Some (key_col, c0) ->
                        iter_bucket lv.table c0 tup.(key_col) keep visit_row
                    | None -> B.iter visit_row keep)
                | None -> B.iter visit_row keep)
            | Scan -> Array.iter visit_row lv.sel
            | Ix_key { key_col; probe } ->
                iter_bucket lv.table key_col (probe.Expr.eval env) lv.mask visit_row
            | Ix_gen { keyed; tbl } -> List.iter visit_row (gen_rows tbl keyed env))
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
   precomputed state in a handful of bit tests and lookups.

   A pinned tuple's contribution is a value-level question — join_fixed
   pins by value, bypassing the pinned level's own candidate set — so
   the same test serves the old (stored) and the new (hypothetical)
   tuple of a delta. A stored tuple is also its row, which answers
   faster: a stored level-0 row takes part iff its bit is set in the
   AND of every level's mask.

   On star plans a pin costs a constant number of lookups, whatever the
   size of the fact table. Pinning level 0 is one bucket probe per
   remaining level. Pinning a dimension level f reads its joinable-key
   set, built once per preparation and level from the AND of the other
   levels' masks: the key ids of f's bare-column equi on the rows that
   join every level but f. When f's other equis are all constant
   probes, the pin joins iff its key's id is in the set and its tuple
   matches those constants — one bit test instead of a bucket scan per
   delta. Levels with expression probes still scan the bucket. *)

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

(* The ids, in level 0's column [c0], of the rows that join every level
   but [f]: built once per (preparation, pinned level). *)
let joinable t f c0 =
  match t.joinable.(f) with
  | Some j -> j
  | None ->
      let k0 = Col_table.keys t.levels.(0).table c0 in
      let j = B.scatter (ands t f) k0.Col_table.ids (k0.Col_table.null_id + 1) in
      t.joinable.(f) <- Some j;
      j

let consts_match consts tup = Array.for_all (fun (kc, v) -> tup.(kc) = v) consts

(* Exact joinability of a tuple pinned at a star plan's level [flvl]
   (>= 1) that passes its singles: it must match the level's constant
   equis, and some level-0 row of [ands flvl] must match its other
   equis. With a bare-column equi and no expression probes that is one
   bit test in the joinable-key set; with expression probes, a scan of
   the key's bucket. A level with only expression probes has no such
   bucket and stays conservative. *)
let star_dim_pin t flvl tup =
  let { bare; consts; exprs } = t.levels.(flvl).probes in
  consts_match consts tup
  &&
  match (bare, exprs) with
  | None, [] -> B.count (ands t flvl) > 0
  | None, _ :: _ -> true
  | Some (key_col, c0), [] -> (
      match Col_table.key_id t.levels.(0).table c0 tup.(key_col) with
      | -1 -> false
      | id -> B.get (joinable t flvl c0) id)
  | Some (key_col, c0), exprs ->
      let env = t.scratch in
      let table0 = t.levels.(0).table in
      exists_in_bucket table0 c0 tup.(key_col) (ands t flvl) (fun r ->
          env.(0) <- Col_table.tuple table0 r;
          List.for_all (fun (kc, probe) -> probe.Expr.eval env = tup.(kc)) exprs)

(* Emptiness of [join_fixed (flvl, tup)] without running it: [false] is
   always exact; [true] means "maybe nonempty" and the caller falls
   back to the full join. Star plans are decided exactly (modulo
   expression-probed pinned levels): pinning level 0 leaves one bucket
   probe per remaining level, and pinning a later level reduces to its
   joinable-key set (or its bucket filtered by the masks). *)
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
            let lv0 = t.levels.(0) in
            exists_in_bucket lv0.table c0 tup.(key_col) lv0.mask (fun _ -> true))
      t.levels.(flvl).equis
  else true

let row_participates t lvl row =
  let lv = t.levels.(lvl) in
  if not t.star then
    Hashtbl.mem (participating t).(lvl) (Col_table.tuple lv.table row)
  else if lvl = 0 then B.get (ands t 0) row
  else B.get lv.mask row && star_dim_pin t lvl (Col_table.tuple lv.table row)

let may_extend = pin_may_join
