type report = {
  pricing : Pricing.t;
  solved : int;
  attempted : int;
  failures : (string * int) list;
  degraded : Degrade.marker option;
}

(* The members share one constraint matrix, so the sweep runs in
   fixed-size chunks, each warm-starting through its own family. The
   chunk size is deliberately independent of the job count: warm chains
   alter which optimal vertex an LP reports (alternate optima), so
   job-count-dependent chunking would break bit-identical results across
   QP_JOBS. *)
let chunk_size = 8

let chunks members =
  let len = Array.length members in
  Array.init
    ((len + chunk_size - 1) / chunk_size)
    (fun i ->
      Array.sub members (i * chunk_size)
        (min chunk_size (len - (i * chunk_size))))

let run ?jobs ~algorithm ~member_span ~member_args ?(skip = fun _ -> false)
    ~family ~fallback:(fallback_key, fallback) ~all_failed h members =
  (* Force the shared class cache before fanning out: workers would
     otherwise race to fill it (harmless but redundant work). *)
  ignore (Hypergraph.classes h);
  (* Each worker also evaluates its members' revenue, so the merge below
     only compares numbers. *)
  let solve_chunk chunk =
    let solve = family () in
    Array.map
      (fun m ->
        if skip m then `Skipped
        else
          Qp_obs.with_span member_span ~args:(fun () -> member_args m)
          @@ fun () ->
          match solve m with
          | Error e ->
              Qp_obs.annotate (fun () ->
                  [ ("lp_failure", Qp_obs.Str (Qp_lp.Lp.error_tag e)) ]);
              `Failed e
          | Ok w ->
              let pricing = Pricing.Item w in
              let revenue = Pricing.revenue pricing h in
              Qp_obs.annotate (fun () -> [ ("revenue", Qp_obs.Float revenue) ]);
              `Solved (pricing, revenue))
      chunk
  in
  let outcomes =
    Array.concat
      (Array.to_list (Qp_util.Parallel.map ?jobs solve_chunk (chunks members)))
  in
  (* Index-ordered merge with a strict [>]: ties keep the earliest
     member, exactly like a sequential sweep. *)
  let zero = Pricing.Item (Array.make (Hypergraph.n_items h) 0.0) in
  let best = ref zero and best_revenue = ref (Pricing.revenue zero h) in
  let solved = ref 0 and errors = ref [] in
  Array.iter
    (function
      | `Skipped -> ()
      | `Failed e -> errors := e :: !errors
      | `Solved (pricing, revenue) ->
          incr solved;
          if revenue > !best_revenue then begin
            best := pricing;
            best_revenue := revenue
          end)
    outcomes;
  let failures = Degrade.tally_failures (List.rev !errors) in
  let failure_counter = algorithm ^ ".lp_failures" in
  if !errors <> [] then Qp_obs.counter failure_counter (List.length !errors);
  (* Degradation: the sweep is only meaningless when no LP solved at all
     and at least one failed — then the zero pricing would misread as
     "earns nothing", so fall back and say so. Partial failures keep the
     best solved member, reported in [failures]; an all-skipped sweep
     failed nothing and keeps the zero pricing. The closing annotation
     describes the pricing actually returned. *)
  let pricing, degraded, revenue =
    if !solved = 0 && failures <> [] then
      let marker =
        Degrade.record
          (Degrade.make ~algorithm ~fallback:fallback_key
             ~reason:(all_failed ^ ": " ^ Degrade.pp_tally failures))
      in
      let pricing = fallback h in
      (pricing, Some marker, Pricing.revenue pricing h)
    else (!best, None, !best_revenue)
  in
  Qp_obs.annotate (fun () ->
      [
        ("solved", Qp_obs.Int !solved);
        ("failed", Qp_obs.Int (List.length !errors));
        ("best_revenue", Qp_obs.Float revenue);
      ]
      @
      if Option.is_none degraded then []
      else [ ("fallback", Qp_obs.Str fallback_key) ]);
  {
    pricing;
    solved = !solved;
    attempted = Array.length outcomes;
    failures;
    degraded;
  }
