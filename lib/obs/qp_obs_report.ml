(* Aggregate a Chrome trace-event JSONL file (written by
   Qp_obs.write_chrome_trace) into a self-time/total-time table.

   The parser below is a minimal JSON reader — the container ships no
   JSON library, and the trace format is our own output — but it parses
   full JSON values (nested objects/arrays, escapes, numbers), so a
   trace annotated by hand or post-processed by other tools still
   loads. *)

(* --- JSON parsing ----------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape");
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              let code =
                match int_of_string_opt ("0x" ^ hex) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              (* Keep it simple: encode the code point as UTF-8 (the
                 traces we write only escape control characters). *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end;
              pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "empty input"
  in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let str j = match j with String s -> Some s | _ -> None
  let num j = match j with Num f -> Some f | _ -> None
  let items j = match j with List l -> Some l | _ -> None
end

(* Internal aliases: re-export the constructors at top level so the
   aggregation code below reads as before. *)
type json = Json.t =
  | Null
  | Bool of bool
  | Num of float
  | String of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error = Json.Parse_error

let parse_json = Json.parse
let field = Json.member

let string_field key j =
  match field key j with Some (String s) -> Some s | _ -> None

let num_field key j =
  match field key j with Some (Num f) -> Some f | _ -> None

(* --- aggregation ------------------------------------------------------- *)

type span_stat = {
  label : string;
  count : int;
  total_us : float;  (* inclusive: sum of span durations *)
  self_us : float;   (* total minus time in direct children *)
  durations_us : float array;  (* one inclusive duration per span *)
}

type t = {
  spans : span_stat list;  (* first-seen order *)
  counters : (string * float) list;  (* final "C" samples, label order *)
  gauges : (string * float) list;  (* "C" samples tagged kind=gauge *)
  events : (string * int) list;  (* instant-event counts, label order *)
  total_us : float;  (* trace duration: last timestamp seen *)
}

type open_span = {
  olabel : string;
  ots : float;
  mutable children_us : float;
}

(* counter and gauge samples by label; each label occurs once *)
let by_label (a, _) (b, _) = String.compare a b

let aggregate lines =
  let acc : (string, int * float * float * float list) Hashtbl.t =
    Hashtbl.create 32
  in
  let order = ref [] in
  let instants : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let instant_order = ref [] in
  let counters = ref [] in
  let gauges = ref [] in
  let stack = ref [] in
  let last_ts = ref 0.0 in
  let saw_record = ref false in
  let record label dur =
    (if not (Hashtbl.mem acc label) then order := label :: !order);
    let count, total, self, durs =
      Option.value (Hashtbl.find_opt acc label) ~default:(0, 0.0, 0.0, [])
    in
    (* self is patched below: we add the full duration here and subtract
       child time as children close. *)
    Hashtbl.replace acc label (count + 1, total +. dur, self +. dur, dur :: durs)
  in
  let subtract_child label dur =
    match Hashtbl.find_opt acc label with
    | Some (count, total, self, durs) ->
        Hashtbl.replace acc label (count, total, self -. dur, durs)
    | None -> ()
  in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if line <> "" && line <> "[" && line <> "]" then begin
        (* Tolerate the array form of the Chrome format: strip one
           trailing comma per line. *)
        let line =
          if String.length line > 0 && line.[String.length line - 1] = ',' then
            String.sub line 0 (String.length line - 1)
          else line
        in
        let j =
          try parse_json line
          with Parse_error msg ->
            raise
              (Parse_error (Printf.sprintf "line %d: %s" (lineno + 1) msg))
        in
        let bad msg =
          raise (Parse_error (Printf.sprintf "line %d: %s" (lineno + 1) msg))
        in
        (* Timestamps are what durations are computed from; a missing
           or non-numeric "ts" on a timing record means the trace is
           corrupt, so fail loudly rather than silently inventing a
           duration. Metadata ("M") and final samples ("C") stay
           lenient. *)
        let strict_ts () =
          match field "ts" j with
          | Some (Num f) ->
              last_ts := Float.max !last_ts f;
              f
          | Some _ -> bad "non-numeric \"ts\""
          | None -> bad "missing \"ts\""
        in
        (match num_field "ts" j with
        | Some f -> last_ts := Float.max !last_ts f
        | None -> ());
        match string_field "ph" j with
        | Some "B" ->
            let ts = strict_ts () in
            saw_record := true;
            let label = Option.value (string_field "name" j) ~default:"?" in
            stack := { olabel = label; ots = ts; children_us = 0.0 } :: !stack
        | Some "E" -> (
            let ts = strict_ts () in
            saw_record := true;
            match !stack with
            | [] -> ()  (* unbalanced: ignore rather than fail *)
            | top :: rest ->
                let dur = Float.max 0.0 (ts -. top.ots) in
                record top.olabel dur;
                (match rest with
                | parent :: _ -> parent.children_us <- parent.children_us +. dur
                | [] -> ());
                (* children time is subtracted from this span's self *)
                subtract_child top.olabel top.children_us;
                stack := rest)
        | Some "X" -> (
            (* complete events: duration carried inline *)
            saw_record := true;
            match field "dur" j with
            | Some (Num dur) ->
                let label = Option.value (string_field "name" j) ~default:"?" in
                record label dur
            | Some _ -> bad "non-numeric \"dur\""
            | None -> bad "missing \"dur\"")
        | Some "i" | Some "I" ->
            ignore (strict_ts ());
            saw_record := true;
            let label = Option.value (string_field "name" j) ~default:"?" in
            (if not (Hashtbl.mem instants label) then
               instant_order := label :: !instant_order);
            Hashtbl.replace instants label
              (1 + Option.value (Hashtbl.find_opt instants label) ~default:0)
        | Some "C" -> (
            saw_record := true;
            let label = Option.value (string_field "name" j) ~default:"?" in
            match field "args" j with
            | Some args -> (
                match num_field "value" args with
                | Some v ->
                    let dst =
                      match string_field "kind" args with
                      | Some "gauge" -> gauges
                      | _ -> counters
                    in
                    dst := (label, v) :: List.remove_assoc label !dst
                | None -> ())
            | None -> ())
        | Some "M" -> saw_record := true
        | Some _ -> saw_record := true
        | None -> bad "missing \"ph\""
      end)
    lines;
  if not !saw_record then raise (Parse_error "empty trace (no records)");
  let spans =
    List.rev_map
      (fun label ->
        let count, total, self, durs = Hashtbl.find acc label in
        {
          label;
          count;
          total_us = total;
          self_us = Float.max 0.0 self;
          durations_us = Array.of_list (List.rev durs);
        })
      !order
  in
  {
    spans;
    counters = List.sort by_label !counters;
    gauges = List.sort by_label !gauges;
    events =
      List.rev_map
        (fun label -> (label, Hashtbl.find instants label))
        !instant_order;
    total_us = !last_ts;
  }

let of_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      (try Ok (aggregate (List.rev !lines)) with
      | Parse_error msg -> Error (path ^ ": " ^ msg)
      | exn -> Error (path ^ ": " ^ Printexc.to_string exn))

let spans t = t.spans
let counters t = t.counters
let gauges t = t.gauges

(* --- rendering --------------------------------------------------------- *)

let ms us = us /. 1000.0

let render t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "trace duration %.3f ms\n\n" (ms t.total_us));
  let by_self =
    List.sort
      (fun a b -> Float.compare b.self_us a.self_us)
      t.spans
  in
  let pct part =
    if t.total_us <= 0.0 then 0.0 else 100.0 *. part /. t.total_us
  in
  (* Latency summary via the nearest-rank percentile (Qp_util.Stats):
     p50/p95/max of the per-span inclusive durations. *)
  let rows =
    List.map
      (fun s ->
        [
          s.label;
          string_of_int s.count;
          Printf.sprintf "%.3f" (ms s.total_us);
          Printf.sprintf "%.3f" (ms s.self_us);
          Printf.sprintf "%.1f" (pct s.self_us);
          Printf.sprintf "%.3f" (ms (Qp_util.Stats.percentile_nearest s.durations_us 50.0));
          Printf.sprintf "%.3f" (ms (Qp_util.Stats.percentile_nearest s.durations_us 95.0));
          Printf.sprintf "%.3f" (ms (Qp_util.Stats.maximum s.durations_us));
        ])
      by_self
  in
  Buffer.add_string b
    (Qp_util.Text_table.render
       ~header:
         [ "span"; "count"; "total ms"; "self ms"; "self %"; "p50 ms"; "p95 ms"; "max ms" ]
       rows);
  (match
     List.fold_left
       (fun acc s ->
         match acc with
         | Some best when best.count >= s.count -> acc
         | _ -> Some s)
       None t.spans
   with
  | Some hot when Array.length hot.durations_us > 1 ->
      Buffer.add_string b
        (Printf.sprintf "\n%s duration distribution (us, log counts):\n"
           hot.label);
      Buffer.add_string b
        (Qp_util.Histogram.render ~log_scale:true
           (Qp_util.Histogram.create ~buckets:10
              (Array.map int_of_float hot.durations_us)))
  | _ -> ());
  if t.counters <> [] then begin
    Buffer.add_string b "\ncounters:\n";
    Buffer.add_string b
      (Qp_util.Text_table.render ~header:[ "counter"; "value" ]
         (List.map
            (fun (k, v) ->
              [
                k;
                (if Float.is_integer v then Printf.sprintf "%.0f" v
                 else Printf.sprintf "%g" v);
              ])
            t.counters))
  end;
  if t.gauges <> [] then begin
    Buffer.add_string b "\ngauges (high-water marks):\n";
    Buffer.add_string b
      (Qp_util.Text_table.render ~header:[ "gauge"; "max" ]
         (List.map
            (fun (k, v) ->
              [
                k;
                (if Float.is_integer v then Printf.sprintf "%.0f" v
                 else Printf.sprintf "%g" v);
              ])
            t.gauges))
  end;
  if t.events <> [] then begin
    Buffer.add_string b "\ninstant events:\n";
    Buffer.add_string b
      (Qp_util.Text_table.render ~header:[ "event"; "count" ]
         (List.map (fun (k, v) -> [ k; string_of_int v ]) t.events))
  end;
  Buffer.contents b

let report_file path = Result.map render (of_file path)

(* --- regression diff --------------------------------------------------- *)

type diff_row = {
  dlabel : string;
  old_count : int;  (* 0 when the label is new *)
  new_count : int;  (* 0 when the label disappeared *)
  old_self_us : float;
  new_self_us : float;
  old_p95_us : float;
  new_p95_us : float;
  flagged : bool;
}

type diff = {
  rows : diff_row list;
  threshold_pct : float;
  min_regression_us : float;
}

let p95_of s = Qp_util.Stats.percentile_nearest s.durations_us 95.0

let diff ?(threshold_pct = 25.0) ?(min_regression_us = 100.0) told tnew =
  let tbl_of t =
    let tbl = Hashtbl.create 32 in
    List.iter (fun s -> Hashtbl.replace tbl s.label s) t.spans;
    tbl
  in
  let old_tbl = tbl_of told and new_tbl = tbl_of tnew in
  (* New-trace first-seen order, then labels that disappeared. *)
  let labels =
    List.map (fun s -> s.label) tnew.spans
    @ List.filter_map
        (fun s -> if Hashtbl.mem new_tbl s.label then None else Some s.label)
        told.spans
  in
  let regressed old_v new_v =
    old_v > 0.0
    && new_v -. old_v > min_regression_us
    && (new_v -. old_v) /. old_v *. 100.0 > threshold_pct
  in
  let rows =
    List.map
      (fun label ->
        let o = Hashtbl.find_opt old_tbl label
        and n = Hashtbl.find_opt new_tbl label in
        let old_self = match o with Some s -> s.self_us | None -> 0.0
        and new_self = match n with Some s -> s.self_us | None -> 0.0
        and old_p95 = match o with Some s -> p95_of s | None -> 0.0
        and new_p95 = match n with Some s -> p95_of s | None -> 0.0 in
        {
          dlabel = label;
          old_count = (match o with Some s -> s.count | None -> 0);
          new_count = (match n with Some s -> s.count | None -> 0);
          old_self_us = old_self;
          new_self_us = new_self;
          old_p95_us = old_p95;
          new_p95_us = new_p95;
          (* Only flag labels present on both sides: a label appearing
             or vanishing is a workload change, not a regression. *)
          flagged =
            o <> None && n <> None
            && (regressed old_self new_self || regressed old_p95 new_p95);
        })
      labels
  in
  let rows =
    List.sort
      (fun a b ->
        Float.compare
          (b.new_self_us -. b.old_self_us)
          (a.new_self_us -. a.old_self_us))
      rows
  in
  { rows; threshold_pct; min_regression_us }

let diff_flagged d = List.filter (fun r -> r.flagged) d.rows

let render_diff d =
  let b = Buffer.create 4096 in
  let delta_pct old_v new_v =
    if old_v <= 0.0 then "-"
    else Printf.sprintf "%+.1f" ((new_v -. old_v) /. old_v *. 100.0)
  in
  let rows =
    List.map
      (fun r ->
        [
          r.dlabel;
          Printf.sprintf "%d>%d" r.old_count r.new_count;
          Printf.sprintf "%.3f" (ms r.old_self_us);
          Printf.sprintf "%.3f" (ms r.new_self_us);
          delta_pct r.old_self_us r.new_self_us;
          Printf.sprintf "%.3f" (ms r.old_p95_us);
          Printf.sprintf "%.3f" (ms r.new_p95_us);
          delta_pct r.old_p95_us r.new_p95_us;
          (if r.flagged then "!!"
           else if r.old_count = 0 then "new"
           else if r.new_count = 0 then "gone"
           else "");
        ])
      d.rows
  in
  Buffer.add_string b
    (Qp_util.Text_table.render
       ~header:
         [
           "span";
           "count";
           "self ms old";
           "self ms new";
           "d self %";
           "p95 ms old";
           "p95 ms new";
           "d p95 %";
           "flag";
         ]
       rows);
  let flagged = diff_flagged d in
  if flagged = [] then
    Buffer.add_string b
      (Printf.sprintf
         "\nno regressions beyond +%.0f%% (and > %.0f us) in self time or p95\n"
         d.threshold_pct d.min_regression_us)
  else
    Buffer.add_string b
      (Printf.sprintf
         "\nREGRESSION: %d label(s) slowed down more than +%.0f%% (and > %.0f us): %s\n"
         (List.length flagged) d.threshold_pct d.min_regression_us
         (String.concat ", " (List.map (fun r -> r.dlabel) flagged)));
  Buffer.contents b

let diff_files ?threshold_pct ?min_regression_us old_path new_path =
  match of_file old_path with
  | Error e -> Error e
  | Ok told -> (
      match of_file new_path with
      | Error e -> Error e
      | Ok tnew -> Ok (diff ?threshold_pct ?min_regression_us told tnew))
