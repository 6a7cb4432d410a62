(* The row-at-a-time join enumerator, the reference the columnar
   engine is checked against. It reads Eval's classified plan through
   the same accessors Col_eval uses. `bench conflict` times it for the
   gated row/columnar speedup (speedup_columnar), so a change to its
   algorithm moves that gate: keep it plain. *)

open Qp_relational

type level_plan =
  | Scan of Relation.tuple array
  | Probe of
      (Value.t list, Relation.tuple) Hashtbl.t
      * (int * Expr.compiled * int option) list

let passes env filters =
  Array.for_all (fun c -> Expr.is_true (c.Expr.eval env)) filters

let build_level_plan plan lvl raw =
  let n = Array.length (Eval.table_names plan) in
  let scratch = Array.make n [||] in
  let singles =
    Array.of_list
      (List.map (fun f -> f.Eval.f_comp) (Eval.single_filters plan lvl))
  in
  let keep tup =
    scratch.(lvl) <- tup;
    passes scratch singles
  in
  let cands =
    if Array.length singles = 0 then raw
    else Array.of_list (List.filter keep (Array.to_list raw))
  in
  match Eval.level_equis plan lvl with
  | [] -> Scan cands
  | equis ->
      let index = Hashtbl.create (max 16 (Array.length cands)) in
      Array.iter
        (fun tup ->
          let key = List.map (fun (key_col, _, _) -> tup.(key_col)) equis in
          Hashtbl.add index key tup)
        cands;
      Probe (index, equis)

let run_levels plan level_plans =
  let n = Array.length level_plans in
  let env = Array.make n [||] in
  let cross = Eval.cross_compiled plan in
  let out = ref [] in
  let rec extend lvl =
    if lvl = n then out := Array.copy env :: !out
    else
      let filters = cross.(lvl) in
      let visit tup =
        env.(lvl) <- tup;
        if passes env filters then extend (lvl + 1)
      in
      match level_plans.(lvl) with
      | Scan cands -> Array.iter visit cands
      | Probe (index, equis) ->
          let key = List.map (fun (_, probe, _) -> probe.Expr.eval env) equis in
          List.iter visit (Hashtbl.find_all index key)
  in
  extend 0;
  !out

let joins plan db =
  let plans =
    Array.mapi
      (fun lvl name ->
        build_level_plan plan lvl (Relation.tuples (Database.relation db name)))
      (Eval.table_names plan)
  in
  (* Lazily-built indexes of level 0's candidates by column: a pinned
     level joined directly to a level-0 column scans one bucket. *)
  let rev0 = Hashtbl.create 4 in
  let rev0_index col =
    match Hashtbl.find_opt rev0 col with
    | Some idx -> idx
    | None ->
        let idx = Hashtbl.create 256 in
        (match plans.(0) with
        | Scan cands ->
            Array.iter
              (fun tup ->
                let cur =
                  Option.value (Hashtbl.find_opt idx tup.(col)) ~default:[]
                in
                Hashtbl.replace idx tup.(col) (tup :: cur))
              cands
        | Probe _ -> assert false (* level 0 never has equi probes *));
        Hashtbl.replace rev0 col idx;
        idx
  in
  let fixed (flvl, tup) =
    let level_plans =
      Array.mapi
        (fun lvl cached ->
          if lvl = flvl then build_level_plan plan lvl [| tup |] else cached)
        plans
    in
    (if flvl > 0 then
       match
         List.find_opt
           (fun (_, _, c0) -> c0 <> None)
           (Eval.level_equis plan flvl)
       with
       | Some (key_col, _, Some c0) ->
           let bucket =
             Option.value
               (Hashtbl.find_opt (rev0_index c0) tup.(key_col))
               ~default:[]
           in
           level_plans.(0) <- Scan (Array.of_list bucket)
       | _ -> ());
    run_levels plan level_plans
  in
  { Delta_eval.all = (fun () -> run_levels plan plans); fixed }

let prepare db q = Delta_eval.prepare_with joins db q

let run db q =
  let plan = Eval.prepare db q in
  Eval.result_of_envs plan ((joins plan db).all ())
