(* Cross-engine identity gate for the relational layer, run by `make
   check`: build every workload's conflict hypergraph at Tiny scale on
   the columnar engine (the default) and on the row-at-a-time reference
   in qp_rel_oracle, and fail on any (query, delta) pair where their
   conflict sets disagree. No workload query takes Delta_eval's fallback
   strategy, so a short list of fallback-shaped queries over the Tiny
   skewed world runs through the same comparison. The bench gate pins
   the same property at Default scale; this catches divergence in
   seconds, before the benches run. *)

module WI = Qp_experiments.Workload_instances
module C = Qp_market.Conflict

(* Self-joins, a global aggregate selecting a plain field, and DISTINCT
   with LIMIT: each forces the fallback (full re-evaluation per delta). *)
let fallback_sql =
  [
    "SELECT A.Name, B.Name FROM Country A, Country B \
     WHERE A.Region = B.Region AND A.Population > B.Population";
    "SELECT Continent, COUNT(*) FROM Country";
    "SELECT A.Name, B.Name FROM City A, City B \
     WHERE A.CountryCode = B.CountryCode AND A.Population > B.Population";
    "SELECT DISTINCT Continent FROM Country LIMIT 2";
  ]

let failures = ref 0

(* Build one query list's hypergraph on both engines and report one
   line: ok, or the disagreement count and the first disagreeing pair. *)
let compare_engines label db queries deltas =
  let valued = List.map (fun q -> (q, 1.0)) queries in
  let build ?prepare () = C.hypergraph ?prepare db valued deltas in
  let h_row, _ = build ~prepare:Qp_rel_oracle.prepare () in
  let h_col, stats = build () in
  match C.disagreements h_row h_col with
  | [] ->
      Printf.printf
        "check-rel-engines: %-8s ok (%d queries, %d fallback, %d edges)\n"
        label (List.length queries) stats.C.fallback_queries
        (Qp_core.Hypergraph.m h_col)
  | (query, delta) :: _ as ds ->
      incr failures;
      Printf.printf
        "check-rel-engines: %-8s FAILED — %d columnar/row disagreements, \
         first at query %s, delta %d\n"
        label (List.length ds) query delta

let () =
  List.iter
    (fun key ->
      let inst = WI.build key ~scale:WI.Tiny ~seed:42 () in
      compare_engines key inst.WI.db inst.WI.queries inst.WI.deltas;
      if key = "skewed" then
        compare_engines "fallback" inst.WI.db
          (List.mapi
             (fun i sql ->
               Qp_relational.Sql.parse_exn
                 ~name:(Printf.sprintf "F%d" (i + 1))
                 ~db:inst.WI.db sql)
             fallback_sql)
          inst.WI.deltas)
    WI.keys;
  if !failures > 0 then begin
    Printf.printf
      "check-rel-engines: %d check(s) diverge; see the cross-engine \
       tests in test/test_col_eval.ml\n"
      !failures;
    exit 1
  end
