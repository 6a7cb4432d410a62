(* Snapshot-format lint: the broker snapshot (lib/serve/snapshot.ml)
   marshals [Broker.frozen], whose in-memory layout reaches through the
   market broker's record (Qp_market.Broker.t) into the relational,
   core and market type representations. OCaml's Marshal is not type-safe — reading an old
   payload with a changed layout is undefined behavior — so the only
   safety net is the [format_version] header checked before unmarshal.
   This lint makes forgetting that bump impossible to merge: it
   fingerprints the comment-stripped toplevel [type] declarations of
   every file the payload representation reaches, and fails `make
   check` when the fingerprint changes without a matching update here
   (which the rule below forces to come with a version bump).

   Run as:  ocaml scripts/check_snapshot_version.ml        (lint)
            ocaml scripts/check_snapshot_version.ml --print
   --print shows the current version + fingerprint, for updating the
   two [expected_*] constants after an intentional format change.
   Wired into `make check` as check-snapshot-version. *)

(* The pinned state of the world. After intentionally changing any
   payload-reachable type: bump [format_version] in
   lib/serve/snapshot.ml, then set these two from [--print]. *)
let expected_version = 6
let expected_fingerprint = "e40b727e08908d1d57f5928a663d5eb6"

(* Every file whose toplevel type declarations the marshalled payload
   representation can reach ([Broker.frozen] -> Qp_market.Broker.t ->
   relational/core/market types, the database's columnar images
   included). Keep sorted; adding a file changes the fingerprint,
   which is the point. *)
let files =
  [
    "lib/core/hypergraph.ml";
    "lib/core/pricing.ml";
    "lib/market/broker.ml";
    "lib/market/conflict.mli";
    "lib/market/support.mli";
    "lib/relational/agg_state.ml";
    "lib/relational/bitset.ml";
    "lib/relational/col_table.ml";
    "lib/relational/database.ml";
    "lib/relational/delta.ml";
    "lib/relational/expr.ml";
    "lib/relational/query.ml";
    "lib/relational/relation.ml";
    "lib/relational/schema.ml";
    "lib/relational/value.ml";
    "lib/serve/broker.ml";
    "lib/serve/snapshot.ml";
  ]

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Remove comment spans (they nest) from a line, carrying the nesting
   depth across lines. *)
let strip_comments depth line =
  let buf = Buffer.create (String.length line) in
  let n = String.length line in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && line.[!i] = '(' && line.[!i + 1] = '*' then begin
      incr depth;
      i := !i + 2
    end
    else if !i + 1 < n && line.[!i] = '*' && line.[!i + 1] = ')' && !depth > 0
    then begin
      decr depth;
      i := !i + 2
    end
    else begin
      if !depth = 0 then Buffer.add_char buf line.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* A toplevel type-declaration block: from a line starting with "type "
   or a continuation "and ", through every indented/blank line, until
   the next toplevel construct. Blank lines inside the block are kept —
   they separate constructors, not blocks. *)
let type_blocks lines =
  let toplevel l =
    List.exists
      (fun p -> starts_with p l)
      [ "let "; "let("; "module "; "open "; "include "; "exception ";
        "val "; "external "; "class "; "type "; "and " ]
  in
  let buf = Buffer.create 4096 in
  let in_block = ref false in
  List.iter
    (fun line ->
      if starts_with "type " line || (!in_block && starts_with "and " line)
      then begin
        in_block := true;
        Buffer.add_string buf line;
        Buffer.add_char buf '\n'
      end
      else if !in_block then
        if toplevel line then in_block := false
        else begin
          Buffer.add_string buf line;
          Buffer.add_char buf '\n'
        end)
    lines;
  Buffer.contents buf

let canonical path =
  let depth = ref 0 in
  let stripped =
    List.map (fun l -> strip_comments depth l) (read_lines path)
  in
  (* Trailing whitespace must not perturb the fingerprint. *)
  let rstrip s =
    let n = ref (String.length s) in
    while !n > 0 && (s.[!n - 1] = ' ' || s.[!n - 1] = '\t') do decr n done;
    String.sub s 0 !n
  in
  Printf.sprintf "-- %s\n%s" path (type_blocks (List.map rstrip stripped))

let fingerprint () =
  Digest.to_hex (Digest.string (String.concat "" (List.map canonical files)))

(* The version the running code will actually write, read from the one
   authoritative place. *)
let source_version () =
  let lines = read_lines "lib/serve/snapshot.ml" in
  let prefix = "let format_version = " in
  match
    List.find_map
      (fun l ->
        if starts_with prefix l then
          int_of_string_opt
            (String.trim
               (String.sub l (String.length prefix)
                  (String.length l - String.length prefix)))
        else None)
      lines
  with
  | Some v -> v
  | None ->
      prerr_endline
        "check-snapshot-version: cannot find 'let format_version = N' in \
         lib/serve/snapshot.ml";
      exit 2

let () =
  let print_mode = Array.exists (fun a -> a = "--print") Sys.argv in
  let fp = fingerprint () in
  let v = source_version () in
  if print_mode then begin
    Printf.printf "format_version      %d\nfingerprint         %s\n" v fp;
    exit 0
  end;
  let bad = ref false in
  if fp <> expected_fingerprint then begin
    bad := true;
    Printf.printf
      "check-snapshot-version: payload-reachable type declarations changed \
       (fingerprint %s, pinned %s).\n\
       A broker snapshot written before this change must NOT unmarshal \
       into the new layout. Required steps:\n\
      \  1. bump 'let format_version' in lib/serve/snapshot.ml (now %d)\n\
      \  2. re-pin: ocaml scripts/check_snapshot_version.ml --print\n\
      \     and update expected_version/expected_fingerprint there\n"
      fp expected_fingerprint v
  end;
  if v <> expected_version then begin
    bad := true;
    Printf.printf
      "check-snapshot-version: snapshot.ml format_version=%d but the lint \
       pins %d — update expected_version (and the fingerprint, via \
       --print) in scripts/check_snapshot_version.ml\n"
      v expected_version
  end;
  if !bad then exit 1;
  Printf.printf
    "check-snapshot-version: format_version %d, %d files fingerprinted, \
     layout unchanged\n"
    v (List.length files)
