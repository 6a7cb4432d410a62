(* One-workload cost breakdown for the conflict-set build: per engine
   (the row-at-a-time reference in Qp_rel_oracle, then the columnar
   default), how much of a query's time is prepare (selection vectors,
   indexes, base strategy state) vs the per-delta differs scan, and — on the
   columnar pass — how the scan splits across delta target tables and
   between "provably no change" deltas and real conflict edges. Used to
   aim the columnar engine's optimizations; not part of the gate. *)

module WI = Qp_experiments.Workload_instances
module DE = Qp_relational.Delta_eval

let time = Qp_util.Timing.time

let () =
  let key = if Array.length Sys.argv > 1 then Sys.argv.(1) else "ssb" in
  let top = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 8 in
  let inst = WI.build key ~seed:42 () in
  let deltas = inst.WI.deltas in
  Printf.printf "%s: %d queries, |S|=%d\n%!" key
    (List.length inst.WI.queries)
    (Array.length deltas);
  (* standalone prep decomposition: plan compile, columnar build, env
     enumeration *)
  let t_plan = ref 0.0 and t_build = ref 0.0 and t_envs = ref 0.0 in
  List.iter
    (fun q ->
      let plan, d = time (fun () -> Qp_relational.Eval.prepare inst.WI.db q) in
      t_plan := !t_plan +. d;
      let col, d =
        time (fun () -> Qp_relational.Col_eval.prepare plan inst.WI.db)
      in
      t_build := !t_build +. d;
      let _, d = time (fun () -> Qp_relational.Col_eval.join_all col) in
      t_envs := !t_envs +. d)
    inst.WI.queries;
  Printf.printf "prep parts: plan %.3fs  col build %.3fs  col envs %.3fs\n%!"
    !t_plan !t_build !t_envs;
  let hits = ref 0 in
  (* columnar per-delta cost, split by target table and differs outcome *)
  let by_table : (string, float ref * float ref * int ref * int ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let table_stats name =
    match Hashtbl.find_opt by_table name with
    | Some s -> s
    | None ->
        let s = (ref 0.0, ref 0.0, ref 0, ref 0) in
        Hashtbl.add by_table name s;
        s
  in
  let profile ~columnar q =
    let prepare = if columnar then DE.prepare else Qp_rel_oracle.prepare in
    let prep, t_prep = time (fun () -> prepare inst.WI.db q) in
    let _, t_scan =
      time (fun () ->
          Array.iter
            (fun d ->
              if columnar then begin
                let tf, tt, cnt, th =
                  table_stats (Qp_relational.Delta.relation d)
                in
                let r, dt = time (fun () -> DE.differs prep d) in
                incr cnt;
                if r then begin
                  tt := !tt +. dt;
                  incr th;
                  incr hits
                end
                else tf := !tf +. dt
              end
              else if DE.differs prep d then incr hits)
            deltas)
    in
    (t_prep, t_scan, DE.strategy_name prep)
  in
  let rows =
    List.map
      (fun q ->
        let rp, rs, _ = profile ~columnar:false q in
        let cp, cs, strat = profile ~columnar:true q in
        (q.Qp_relational.Query.name, strat, rp, rs, cp, cs))
      inst.WI.queries
  in
  Printf.printf "differs=true: %d of %d (%.1f%%)\n" (!hits / 2)
    (List.length rows * Array.length deltas)
    (100.0 *. float_of_int (!hits / 2)
    /. float_of_int (List.length rows * Array.length deltas));
  Hashtbl.iter
    (fun name (tf, tt, cnt, th) ->
      Printf.printf
        "  col deltas on %-10s: n=%7d  nodiff %.3fs (%.2fus)  differ %d %.3fs (%.1fus)\n"
        name !cnt !tf
        (1e6 *. !tf /. float_of_int (max 1 (!cnt - !th)))
        !th !tt
        (1e6 *. !tt /. float_of_int (max 1 !th)))
    by_table;
  let tot f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
  Printf.printf
    "totals: row prep %.3fs scan %.3fs | columnar prep %.3fs scan %.3fs\n"
    (tot (fun (_, _, rp, _, _, _) -> rp))
    (tot (fun (_, _, _, rs, _, _) -> rs))
    (tot (fun (_, _, _, _, cp, _) -> cp))
    (tot (fun (_, _, _, _, _, cs) -> cs));
  let slowest =
    List.sort
      (fun (_, _, _, _, cp1, cs1) (_, _, _, _, cp2, cs2) ->
        compare (cp2 +. cs2) (cp1 +. cs1))
      rows
  in
  Printf.printf "%-14s %-10s %10s %10s %10s %10s\n" "query" "strategy"
    "row prep" "row scan" "col prep" "col scan";
  List.iteri
    (fun i (name, strat, rp, rs, cp, cs) ->
      if i < top then
        Printf.printf "%-14s %-10s %9.1fms %9.1fms %9.1fms %9.1fms\n" name
          strat (rp *. 1e3) (rs *. 1e3) (cp *. 1e3) (cs *. 1e3))
    slowest
