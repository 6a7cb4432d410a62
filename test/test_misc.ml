(* Remaining edge cases across modules: support configuration extremes,
   uniform-strategy instances, timing helpers, result-set truncation. *)

open Fixtures
module Support = Qp_market.Support
module Delta = Qp_relational.Delta
module Result_set = Qp_relational.Result_set
module Rng = Qp_util.Rng
module WI = Qp_experiments.Workload_instances
module H = Qp_core.Hypergraph

let test_support_all_drops () =
  let config = { Support.default_config with row_drop_fraction = 1.0 } in
  let deltas = Support.generate ~config ~rng:(Rng.create 1) db ~n:8 in
  Array.iter
    (fun d ->
      match d with
      | Delta.Row_drop _ -> ()
      | Delta.Cell_change _ -> Alcotest.fail "expected only drops")
    deltas

let test_support_no_drops () =
  let config = { Support.default_config with row_drop_fraction = 0.0 } in
  let deltas = Support.generate ~config ~rng:(Rng.create 1) db ~n:20 in
  Array.iter
    (fun d ->
      match d with
      | Delta.Cell_change _ -> ()
      | Delta.Row_drop _ -> Alcotest.fail "expected only cell changes")
    deltas

let test_support_empty_db () =
  let empty = Database.make [ Relation.make users_schema [] ] in
  match Support.generate ~rng:(Rng.create 1) empty ~n:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected empty-database rejection"

let test_uniform_strategy_instance () =
  let inst =
    WI.skewed ~scale:WI.Tiny ~strategy:WI.Uniform_support ~support:60 ~seed:3 ()
  in
  Alcotest.(check int) "support" 60 (H.n_items inst.WI.hypergraph);
  (* same database and queries as the query-aware build with this seed *)
  let aware =
    WI.skewed ~scale:WI.Tiny ~strategy:WI.Query_aware ~support:60 ~seed:3 ()
  in
  Alcotest.(check int) "same m" (H.m inst.WI.hypergraph) (H.m aware.WI.hypergraph);
  (* the samplers must actually differ *)
  Alcotest.(check bool) "different deltas" true (inst.WI.deltas <> aware.WI.deltas)

let test_timing () =
  let result, dt = Qp_util.Timing.time (fun () -> 40 + 2) in
  Alcotest.(check int) "result" 42 result;
  Alcotest.(check bool) "non-negative" true (dt >= 0.0);
  let t0 = Qp_util.Timing.now_ns () in
  Alcotest.(check bool) "clock never runs back" true
    (Qp_util.Timing.now_ns () >= t0 && Qp_util.Timing.seconds_since t0 >= 0.0)

let test_result_truncation () =
  let rows = Array.init 5 (fun i -> [| Value.Int i |]) in
  let r = Result_set.make ~header:[| "x" |] rows in
  Alcotest.(check int) "truncate" 3 (Result_set.row_count (Result_set.truncated_to 3 r));
  Alcotest.(check int) "truncate beyond" 5 (Result_set.row_count (Result_set.truncated_to 99 r));
  Alcotest.(check int) "truncate zero" 0 (Result_set.row_count (Result_set.truncated_to 0 r))

let test_rng_pick_list () =
  let r = Rng.create 1 in
  Alcotest.(check bool) "member" true (List.mem (Rng.pick_list r [ 1; 2; 3 ]) [ 1; 2; 3 ])

let test_histogram_ranges () =
  let h = Qp_util.Histogram.create ~buckets:4 (Array.init 100 Fun.id) in
  (* bucket ranges tile the data without gaps *)
  let prev_hi = ref None in
  for i = 0 to Qp_util.Histogram.bucket_count h - 1 do
    let lo, hi, _ = Qp_util.Histogram.bucket h i in
    (match !prev_hi with
    | Some p -> Alcotest.(check int) "contiguous" p lo
    | None -> ());
    Alcotest.(check bool) "non-empty range" true (hi > lo);
    prev_hi := Some hi
  done

let test_conflict_set_row_drop_only () =
  (* a support of pure row drops exercises the Row_drop path of every
     strategy *)
  let config = { Support.default_config with row_drop_fraction = 1.0 } in
  let deltas = Support.generate ~config ~rng:(Rng.create 5) db ~n:8 in
  let rand = Random.State.make [| 77 |] in
  for i = 1 to 10 do
    let q = random_query rand i in
    let expected =
      let base = Qp_rel_oracle.run db q in
      Array.to_list deltas
      |> List.mapi (fun ix d -> (ix, d))
      |> List.filter_map (fun (ix, d) ->
             if
               Result_set.equal base
                 (Qp_rel_oracle.run (Delta.apply db d) q)
             then None
             else Some ix)
    in
    Alcotest.(check (list int)) (Query.to_sql q) expected
      (Array.to_list (Qp_market.Conflict.conflict_set db q deltas))
  done

(* A valuation model whose draws overflow (the mean |e|^200 of exp:200
   is past max_float) is refused by price, run and serve with one line
   on stderr naming the model and exit code 2, not an uncaught
   exception. Runs the built CLI, a dependency of this test. *)
let test_cli_non_finite_model () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/qpricing.exe"
  in
  if not (Sys.file_exists exe) then Alcotest.failf "%s is not built" exe;
  let err = Filename.temp_file "qpricing" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
  List.iter
    (fun args ->
      let code =
        Sys.command
          (Filename.quote_command exe ~stdout:Filename.null ~stderr:err
             (args @ [ "skewed"; "--scale"; "tiny"; "--support"; "60";
                       "--model"; "exp:200" ]))
      in
      let lines =
        In_channel.with_open_text err In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "")
      in
      let cmd = List.hd args in
      Alcotest.(check int) (cmd ^ ": exit code") 2 code;
      Alcotest.(check (list string))
        (cmd ^ ": one line naming the model")
        [ "--model exp(beta=|e|^200): valuations are not finite on the skewed \
           instance" ]
        lines)
    [ [ "price"; "-a"; "ubp" ]; [ "run" ]; [ "serve"; "--smoke"; "2" ] ]

(* [qpricing probe] against a one-shot fake broker: a reply cut short
   is a dying broker (stderr note, exit 0), a complete line that does
   not parse is corruption (exit 3), and no endpoint at all exits 2. *)
let test_cli_probe_exit_codes () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/qpricing.exe"
  in
  if not (Sys.file_exists exe) then Alcotest.failf "%s is not built" exe;
  let out = Filename.temp_file "qpricing" ".out"
  and err = Filename.temp_file "qpricing" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove out; Sys.remove err) @@ fun () ->
  let probe args =
    let code =
      Sys.command
        (Filename.quote_command exe ~stdout:out ~stderr:err
           ("probe" :: args @ [ "PRICE 12" ]))
    in
    let read f = In_channel.with_open_text f In_channel.input_all in
    (code, read out, read err)
  in
  let check name (code, stdout, stderr) (code', stdout', stderr') =
    Alcotest.(check int) (name ^ ": exit code") code' code;
    Alcotest.(check string) (name ^ ": stdout") stdout' stdout;
    Alcotest.(check string) (name ^ ": stderr") stderr' stderr
  in
  Test_serve.with_fake_broker "OK 76.598492010125412 size=1" (fun path ->
      check "cut reply"
        (probe [ "--socket"; path ])
        (0, "", "probe: connection died mid-reply (truncated line)\n"));
  Test_serve.with_fake_broker "OK price=7\n" (fun path ->
      let code, stdout, stderr = probe [ "--socket"; path ] in
      Alcotest.(check int) "unparseable line: exit code" 3 code;
      Alcotest.(check string) "unparseable line: stdout" "OK price=7\n" stdout;
      Alcotest.(check bool) "unparseable line: stderr names it" true
        (String.starts_with ~prefix:"probe: corrupt reply \"OK price=7\""
           stderr));
  check "no endpoint" (probe [])
    (2, "", "probe: need --socket PATH or --tcp PORT\n")

(* [qpricing experiment] checks every id before it runs any: "lemmas"
   is valid and fast, but a later unknown id must stop the command
   before "lemmas" prints a line. *)
let test_cli_experiment_unknown_id () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/qpricing.exe"
  in
  if not (Sys.file_exists exe) then Alcotest.failf "%s is not built" exe;
  let out = Filename.temp_file "qpricing" ".out"
  and err = Filename.temp_file "qpricing" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove out; Sys.remove err) @@ fun () ->
  let code =
    Sys.command
      (Filename.quote_command exe ~stdout:out ~stderr:err
         [ "experiment"; "lemmas"; "nosuch" ])
  in
  let read f = In_channel.with_open_text f In_channel.input_all in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) "stderr names the id" true
    (Astring_contains.contains (read err) "\"nosuch\"");
  Alcotest.(check string) "no experiment output" "" (read out)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "misc",
    [
      t "support: all drops" test_support_all_drops;
      t "support: no drops" test_support_no_drops;
      t "support: empty database" test_support_empty_db;
      t "uniform-strategy instance" test_uniform_strategy_instance;
      t "timing helpers" test_timing;
      t "result truncation" test_result_truncation;
      t "rng pick_list" test_rng_pick_list;
      t "histogram ranges tile" test_histogram_ranges;
      t "conflict sets under pure row drops" test_conflict_set_row_drop_only;
      t "cli: non-finite valuation model exits 2" test_cli_non_finite_model;
      t "cli: probe exit codes" test_cli_probe_exit_codes;
      t "cli: experiment rejects an unknown id before running any"
        test_cli_experiment_unknown_id;
    ] )
