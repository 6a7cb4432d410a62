(* Cross-engine identity gate for the relational layer, run by `make
   check`: build every workload's conflict hypergraph at Tiny scale on
   the columnar engine (the default) and on the row-at-a-time reference
   in qp_rel_oracle, and fail on any (query, delta) pair where their
   conflict sets disagree. The bench gate pins the same property at
   Default scale; this catches divergence in seconds, before the
   benches run. *)

module WI = Qp_experiments.Workload_instances
module C = Qp_market.Conflict

let () =
  let failures = ref 0 in
  List.iter
    (fun key ->
      let inst = WI.build key ~scale:WI.Tiny ~seed:42 () in
      let valued = List.map (fun q -> (q, 1.0)) inst.WI.queries in
      let build ?prepare () =
        fst (C.hypergraph ?prepare inst.WI.db valued inst.WI.deltas)
      in
      match
        C.disagreements (build ~prepare:Qp_rel_oracle.prepare ()) (build ())
      with
      | [] ->
          Printf.printf "check-rel-engines: %-8s ok (%d queries, %d edges)\n"
            key
            (List.length inst.WI.queries)
            (Qp_core.Hypergraph.m inst.WI.hypergraph)
      | (query, delta) :: _ as ds ->
          incr failures;
          Printf.printf
            "check-rel-engines: %-8s FAILED — %d columnar/row disagreements, \
             first at query %s, delta %d\n"
            key (List.length ds) query delta)
    WI.keys;
  if !failures > 0 then begin
    Printf.printf
      "check-rel-engines: %d workload(s) diverge; see the cross-engine \
       tests in test/test_col_eval.ml\n"
      !failures;
    exit 1
  end
