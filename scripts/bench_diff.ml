(* Perf-regression gate over the bench history (`make bench-gate`).

   Compares freshly written BENCH_simplex.json / BENCH_warmstart.json /
   BENCH_serve.json against the committed baselines under
   bench/baselines/ and fails (exit 1) when a pinned metric regresses
   past its threshold:

     - simplex:   the dense->revised crossover size must exist and not
                  grow past 2x the baseline crossover;
     - warmstart: warm-vs-cold check mismatches must stay 0, and for
                  each family present in both runs the warm pivot count
                  may grow at most 10% while the pivot ratio may shrink
                  at most 10% (pivot counts are deterministic, so these
                  bounds are tight on purpose — wall-clock is not gated);
     - conflict:  every workload's hypergraph must be bit-identical
                  across relational engines and job counts with zero
                  row/columnar disagreements and no dropped queries; the
                  same-run row/columnar per-query-mean ratio must hold
                  its floor (5x on ssb, parity elsewhere) and the
                  absolute columnar per-query mean may grow at most 3x
                  over baseline;
     - serve:     served quotes must stay bit-identical to the oracle
                  (identity_mismatches = 0), no level may report client
                  errors, the broker's own METRICS counters must agree
                  with the client tallies, snapshot crash-recovery must
                  reload bit-identically (recovery_identity_mismatches
                  = 0) within max(50ms, 3x baseline recovery_ms) and
                  faster than the precompute it replaces, and peak
                  throughput may drop to at most a third of baseline
                  (the one timing gate, deliberately loose: shared CI
                  boxes are noisy).

   Usage: bench_diff [BASELINE_DIR [CURRENT_DIR]]
   (defaults: bench/baselines and the repository root / cwd).
   Set QP_BENCH_GATE=off to skip the gate entirely (e.g. on a machine
   too slow to hold even the loose throughput floor). *)

module Json = Qp_obs_report.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "GATE FAIL  %s\n" msg)
    fmt

let ok fmt = Printf.ksprintf (fun msg -> Printf.printf "gate ok    %s\n" msg) fmt

let read_json path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Json.parse s

(* Field accessors that turn a missing/mistyped field into a gate
   failure rather than an exception: a malformed bench file should read
   as a regression, not a crash. *)
let num_field ~file j key =
  match Option.bind (Json.member key j) Json.num with
  | Some v -> Some v
  | None ->
      fail "%s: missing numeric field %S" file key;
      None

let list_field ~file j key =
  match Option.bind (Json.member key j) Json.items with
  | Some l -> Some l
  | None ->
      fail "%s: missing array field %S" file key;
      None

let check_simplex ~baseline ~current =
  match (num_field ~file:"baseline simplex" baseline "crossover_n",
         num_field ~file:"current simplex" current "crossover_n")
  with
  | Some b, Some c ->
      if c <= 2.0 *. b then
        ok "simplex crossover_n %.0f (baseline %.0f, limit %.0f)" c b (2.0 *. b)
      else
        fail "simplex crossover_n grew %.0f -> %.0f (limit %.0f): revised \
              engine lost ground to the dense tableau"
          b c (2.0 *. b)
  | _ -> ()

let family_assoc ~file j =
  match list_field ~file j "families" with
  | None -> []
  | Some fams ->
      List.filter_map
        (fun f ->
          match Option.bind (Json.member "name" f) Json.str with
          | Some name -> Some (name, f)
          | None ->
              fail "%s: family without a name" file;
              None)
        fams

let check_warmstart ~baseline ~current =
  (match num_field ~file:"current warmstart" current "check_mismatches" with
  | Some 0.0 -> ok "warmstart check_mismatches 0"
  | Some m -> fail "warmstart check_mismatches %.0f (warm solves no longer \
                    match cold solves bit-for-bit)" m
  | None -> ());
  let base_fams = family_assoc ~file:"baseline warmstart" baseline in
  let cur_fams = family_assoc ~file:"current warmstart" current in
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name cur_fams with
      | None -> fail "warmstart family %S present in baseline, missing now" name
      | Some c ->
          (match (num_field ~file:"baseline warmstart" b "pivots_warm",
                  num_field ~file:"current warmstart" c "pivots_warm")
           with
          | Some bp, Some cp ->
              if cp <= bp *. 1.10 then
                ok "warmstart %s pivots_warm %.0f (baseline %.0f)" name cp bp
              else
                fail "warmstart %s pivots_warm %.0f -> %.0f (>10%% more \
                      pivots: warm starts are being wasted)"
                  name bp cp
          | _ -> ());
          (match (num_field ~file:"baseline warmstart" b "pivot_ratio",
                  num_field ~file:"current warmstart" c "pivot_ratio")
           with
          | Some br, Some cr ->
              if cr >= br *. 0.90 then
                ok "warmstart %s pivot_ratio %.2f (baseline %.2f)" name cr br
              else
                fail "warmstart %s pivot_ratio %.2f -> %.2f (>10%% less \
                      pivot saving)"
                  name br cr
          | _ -> ()))
    base_fams

let check_serve ~baseline ~current =
  (match num_field ~file:"current serve" current "identity_mismatches" with
  | Some 0.0 -> ok "serve identity_mismatches 0"
  | Some m ->
      fail "serve identity_mismatches %.0f (served quotes diverge from the \
            one-shot oracle)" m
  | None -> ());
  (match Option.bind (Json.member "metrics" current)
           (fun m -> Json.member "counts_consistent" m)
   with
  | Some (Json.Bool true) -> ok "serve METRICS counters match client tallies"
  | Some _ -> fail "serve METRICS counters disagree with client tallies"
  | None -> fail "current serve: missing metrics.counts_consistent");
  (* Crash recovery: a reloaded snapshot must price every query
     bit-identically, and restarting from it must stay both fast in
     absolute terms and far cheaper than the precompute it replaces.
     The absolute bound is max(50ms, 3x baseline) — loose enough for a
     noisy shared box, tight enough to catch the snapshot path silently
     degenerating into a recompute. *)
  (match Json.member "snapshot" current with
  | None -> fail "current serve: missing snapshot block (no recovery numbers)"
  | Some snap -> (
      (match num_field ~file:"current serve" snap
               "recovery_identity_mismatches"
       with
      | Some 0.0 -> ok "serve snapshot recovery bit-identical"
      | Some m ->
          fail "serve snapshot recovery_identity_mismatches %.0f (reloaded \
                state prices differently)" m
      | None -> ());
      let base_recovery =
        Option.bind (Json.member "snapshot" baseline) (fun s ->
            Option.bind (Json.member "recovery_ms" s) Json.num)
      in
      match (num_field ~file:"current serve" snap "recovery_ms",
             num_field ~file:"current serve" current "precompute_seconds")
      with
      | Some r, Some pre ->
          let limit =
            Float.max 50.0
              (match base_recovery with Some b -> 3.0 *. b | None -> 0.0)
          in
          if r > limit then
            fail "serve snapshot recovery_ms %.1f (limit %.1f): restart is \
                  no longer cheap" r limit
          else if r /. 1000.0 >= pre then
            fail "serve snapshot recovery_ms %.1f is no faster than the \
                  %.2fs precompute it replaces" r pre
          else
            ok "serve snapshot recovery_ms %.1f (limit %.1f, precompute \
                %.2fs)" r limit pre
      | _ -> ()));
  (match list_field ~file:"current serve" current "levels" with
  | None -> ()
  | Some levels ->
      List.iter
        (fun l ->
          match (num_field ~file:"current serve" l "clients",
                 num_field ~file:"current serve" l "errors")
          with
          | Some clients, Some errors when errors > 0.0 ->
              fail "serve level clients=%.0f reported %.0f errors" clients
                errors
          | _ -> ())
        levels);
  (* Gate peak throughput across the client levels, not any single
     level: on a small shared box per-level numbers swing 3x between
     runs, but the best of four levels (each already a median of three
     passes) is far steadier. *)
  let peak_qps ~file j =
    match list_field ~file j "levels" with
    | None -> None
    | Some levels ->
        List.fold_left
          (fun best l ->
            match Option.bind (Json.member "quotes_per_sec" l) Json.num with
            | Some q -> Some (match best with Some b -> Float.max b q | None -> q)
            | None -> best)
          None levels
  in
  match (peak_qps ~file:"baseline serve" baseline,
         peak_qps ~file:"current serve" current)
  with
  | Some b, Some c ->
      if c >= b /. 3.0 then
        ok "serve peak quotes/sec %.0f (baseline %.0f, floor %.0f)" c b
          (b /. 3.0)
      else
        fail "serve peak quotes/sec fell %.0f -> %.0f (floor %.0f, a third \
              of baseline)"
          b c (b /. 3.0)
  | None, _ -> fail "baseline serve: no level with quotes_per_sec"
  | _, None -> fail "current serve: no level with quotes_per_sec"

let check_conflict ~baseline ~current =
  let workload_assoc ~file j =
    match list_field ~file j "workloads" with
    | None -> []
    | Some ws ->
        List.filter_map
          (fun w ->
            match Option.bind (Json.member "workload" w) Json.str with
            | Some name -> Some (name, w)
            | None ->
                fail "%s: workload entry without a name" file;
                None)
          ws
  in
  let base_ws = workload_assoc ~file:"baseline conflict" baseline in
  let cur_ws = workload_assoc ~file:"current conflict" current in
  List.iter
    (fun (name, w) ->
      (* Correctness pins: every engine/job combination built the same
         hypergraph and the row and columnar conflict sets agree. *)
      (match Json.member "fingerprints_equal" w with
      | Some (Json.Bool true) -> ok "conflict %s engines bit-identical" name
      | Some _ -> fail "conflict %s: hypergraphs differ across engines" name
      | None -> fail "current conflict: %s missing fingerprints_equal" name);
      (match num_field ~file:"current conflict" w "check_mismatches" with
      | Some 0.0 -> ok "conflict %s check_mismatches 0" name
      | Some m ->
          fail "conflict %s check_mismatches %.0f (columnar engine diverges \
                from the row oracle)" name m
      | None -> ());
      (match num_field ~file:"current conflict" w "failed_queries" with
      | Some 0.0 -> ()
      | Some m -> fail "conflict %s dropped %.0f queries" name m
      | None -> ());
      (* The tentpole metric: same-run per-query-mean ratio row/columnar
         at jobs=1. Same-run ratios are steady on a noisy box, so this
         floor is meaningful even where absolute times are not. *)
      (match num_field ~file:"current conflict" w "speedup_columnar" with
      | Some s ->
          let floor = if name = "ssb" then 5.0 else 1.0 in
          if s >= floor then
            ok "conflict %s columnar speedup %.2fx/query (floor %.1fx)" name s
              floor
          else
            fail "conflict %s columnar speedup %.2fx/query fell below the \
                  %.1fx floor" name s floor
      | None -> ());
      (* Absolute guard vs baseline, deliberately loose (3x) — catches a
         collapse of the whole build, not scheduler noise. *)
      match
        ( Option.bind (List.assoc_opt name base_ws) (fun b ->
              Option.bind (Json.member "query_seconds_mean" b) Json.num),
          num_field ~file:"current conflict" w "query_seconds_mean" )
      with
      | Some b, Some c ->
          if c <= 3.0 *. b then
            ok "conflict %s query mean %.2fms (baseline %.2fms, limit 3x)"
              name (c *. 1e3) (b *. 1e3)
          else
            fail "conflict %s query mean grew %.2fms -> %.2fms (over 3x \
                  baseline)" name (b *. 1e3) (c *. 1e3)
      | _ -> ())
    cur_ws;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name cur_ws) then
        fail "conflict workload %S present in baseline, missing now" name)
    base_ws

let compare_pair name check ~baseline_dir ~current_dir =
  let file = "BENCH_" ^ name ^ ".json" in
  let bpath = Filename.concat baseline_dir file in
  let cpath = Filename.concat current_dir file in
  match (read_json bpath, read_json cpath) with
  | baseline, current -> check ~baseline ~current
  | exception Sys_error e -> fail "%s: %s" file e
  | exception Json.Parse_error e -> fail "%s: malformed JSON: %s" file e

let () =
  (match Sys.getenv_opt "QP_BENCH_GATE" with
  | Some "off" ->
      print_endline
        "bench gate: skipped (QP_BENCH_GATE=off) — no metrics compared";
      exit 0
  | _ -> ());
  let baseline_dir, current_dir =
    match Array.to_list Sys.argv with
    | _ :: b :: c :: _ -> (b, c)
    | [ _; b ] -> (b, ".")
    | _ -> ("bench/baselines", ".")
  in
  compare_pair "simplex" check_simplex ~baseline_dir ~current_dir;
  compare_pair "warmstart" check_warmstart ~baseline_dir ~current_dir;
  compare_pair "serve" check_serve ~baseline_dir ~current_dir;
  compare_pair "conflict" check_conflict ~baseline_dir ~current_dir;
  if !failures > 0 then begin
    Printf.printf
      "bench gate: %d regression(s) vs %s — if intentional, refresh the \
       baselines; to bypass once, set QP_BENCH_GATE=off\n"
      !failures baseline_dir;
    exit 1
  end
  else Printf.printf "bench gate: all pinned metrics within thresholds vs %s\n"
      baseline_dir
