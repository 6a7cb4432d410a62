(* The source lints behind `make check`: one scanner, one walker, one
   reporter, and seven rules as plain functions.

   Run as:  ocaml scripts/lint.ml RULE [DIR|FILE ...]
   from the repository root, where RULE is one of mli-docs, failwith,
   float-sort, cold-lp, obs-labels, dead-exports or snapshot-version
   (see [rules] at the bottom for each rule's default directories).
   Every hit prints as `path:line: why`; the run then prints the rule's
   summary line and exits 1 if there was any hit, 0 otherwise.
   `ocaml scripts/lint.ml snapshot-version --print` shows the current
   snapshot format version and fingerprint, for re-pinning.

   The fixtures under scripts/_lint_fixtures/ hold one offending file
   per directory-taking rule; `make check-lint-selftest` requires each
   rule to exit 1 on its own fixture. *)

(* --- text helpers ------------------------------------------------------ *)

let starts_with prefix s = String.starts_with ~prefix s

let find_from sub s from =
  let n = String.length sub and m = String.length s in
  let rec go i =
    if i + n > m then None else if String.sub s i n = sub then Some i else go (i + 1)
  in
  go from

let contains sub s = find_from sub s 0 <> None

let read_file path = In_channel.with_open_bin path In_channel.input_all

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* [tok] at [i] in [s], with no identifier character right after it
   and, when [~left], none (nor '.', so [Float.compare] is not
   [compare]) right before it. *)
let token_at ?(left = false) tok s i =
  let tn = String.length tok and n = String.length s in
  i + tn <= n
  && String.sub s i tn = tok
  && ((not left) || i = 0 || not (is_ident s.[i - 1] || s.[i - 1] = '.'))
  && (i + tn = n || not (is_ident s.[i + tn]))

(* The positions [i] of [s] that [f] holds at. *)
let indices s f = List.filter f (List.init (String.length s) Fun.id)
let exists_index s f = indices s f <> []

(* --- the scanner ------------------------------------------------------- *)

(* One line of a source file, as OCaml's lexer sees it. *)
type line = {
  raw : string;
  code : string;
      (** [raw] with comment text deleted (comments nest) and literals
          kept: what the failwith, float-sort, cold-lp and obs-label
          rules read, and what the snapshot fingerprint hashes. *)
  bare : string;
      (** [raw] with comments and string literals blanked, columns kept:
          the words the dead-exports rule counts. *)
  in_comment : bool;  (** The line starts inside a comment. *)
  commented : bool;  (** The line holds comment text. *)
  doc : bool;  (** A doc comment opens on the line. *)
}

(* The lexical class of every byte of [s]: 'c' code, 's' a string or
   {id|quoted|id} literal, 'k' comment text and 'd' the first byte of
   a doc-comment opener. It follows OCaml's lexer: comments nest; string,
   quoted-string and character literals are lexed inside comments as
   well as outside, so a "(*" or "*)" in a literal neither opens nor
   closes anything, nor does a '"' character literal start a string;
   identifiers are read whole, so the quote in [x'] starts nothing. *)
let classify s =
  let n = String.length s in
  let cls = Bytes.make n 'c' in
  let mark i j k = Bytes.fill cls i (min j n - i) k in
  let rec ident_end i = if i < n && is_ident s.[i] then ident_end (i + 1) else i in
  let rec string_end i =
    if i >= n then n
    else match s.[i] with '\\' -> string_end (i + 2) | '"' -> i + 1 | _ -> string_end (i + 1)
  in
  (* [{id|] at [i] opens a quoted string closed by [|id}]. *)
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && (match s.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do incr j done;
    if !j < n && s.[!j] = '|' then
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      Some (match find_from close s (!j + 1) with
            | Some k -> k + String.length close
            | None -> n)
    else None
  in
  (* A character literal at [i] ('x', '\n', '\'', '\123', '\xAB',
     '\o123'); anything else after a quote is a type variable. *)
  let char_end i =
    if i + 2 < n && s.[i + 1] <> '\\' && s.[i + 2] = '\'' then Some (i + 3)
    else if i + 3 < n && s.[i + 1] = '\\' then
      let rec close j = if j > i + 6 || j >= n then None
        else if s.[j] = '\'' then Some (j + 1) else close (j + 1) in
      close (i + 3)
    else None
  in
  let opens i = i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' in
  (* The end of the string, quoted-string or character literal at [i]. *)
  let literal i =
    match s.[i] with
    | '"' -> Some (string_end (i + 1))
    | '{' -> quoted_end i
    | '\'' -> char_end i
    | _ -> None
  in
  let rec comment depth i =
    if i >= n then n
    else if opens i then begin
      mark i (i + 2) 'k';
      if i + 2 < n && s.[i + 2] = '*' then Bytes.set cls i 'd';
      comment (depth + 1) (i + 2)
    end
    else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then begin
      mark i (i + 2) 'k';
      if depth = 1 then i + 2 else comment (depth - 1) (i + 2)
    end
    else
      let j = match literal i with Some j -> j | None -> max (i + 1) (ident_end i) in
      mark i j 'k';
      comment depth j
  in
  (* A character literal is code: only strings are classed 's'. *)
  let rec code i =
    if i < n then
      if opens i then code (comment 0 i)
      else
        match literal i with
        | Some j ->
            if s.[i] <> '\'' then mark i j 's';
            code j
        | None -> code (max (i + 1) (ident_end i))
  in
  code 0;
  Bytes.to_string cls

let scan path =
  let s = read_file path in
  let cls = classify s in
  let comment c = c = 'k' || c = 'd' in
  let len = String.length s in
  let rec lines start in_comment acc =
    if start >= len then Array.of_list (List.rev acc)
    else
      let stop = Option.value (String.index_from_opt s start '\n') ~default:len in
      let raw = String.sub s start (stop - start) in
      let k = String.sub cls start (stop - start) in
      let keep = Buffer.create (String.length raw) in
      String.iteri (fun i c -> if not (comment k.[i]) then Buffer.add_char keep c) raw;
      let line = {
        raw;
        code = Buffer.contents keep;
        bare = String.mapi (fun i c -> if k.[i] = 'c' then c else ' ') raw;
        in_comment;
        commented = in_comment || String.exists comment k;
        doc = String.contains k 'd';
      } in
      (* The newline's own class says whether the next line starts in a comment. *)
      lines (stop + 1) (stop < len && comment cls.[stop]) (line :: acc)
  in
  lines 0 false []

(* --- the walker --------------------------------------------------------- *)

(* Every .ml/.mli file under the given paths (a file argument stands for
   itself), sorted. Entries starting with '.' or '_' are skipped, as dune
   skips them: build trees, and the lint fixtures, which must never count
   as a use in the dead-exports rule. *)
let rec sources path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.filter (fun e -> e.[0] <> '.' && e.[0] <> '_')
    |> List.concat_map (fun e -> sources (Filename.concat path e))
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then
    [ path ]
  else []

let files ~suffixes dirs =
  List.concat_map sources dirs
  |> List.filter (fun p -> List.exists (Filename.check_suffix p) suffixes)

(* A hit is (path, 1-based line, why). [per_line files f] is every hit
   [f lines i] reports for line [i] of one of [files]. *)
let per_line files f =
  files
  |> List.concat_map (fun path ->
         let ls = scan path in
         List.concat
           (List.init (Array.length ls) (fun i ->
                List.map (fun why -> (path, i + 1, why)) (f ls i))))

(* --- mli-docs ------------------------------------------------------------ *)

(* Doc coverage: every exported [val] in the given directories' .mli
   files must carry a doc comment, either directly above it or in the
   item's own span (same line or before the next top-level item). *)

let item_keywords =
  [ "val "; "type "; "module "; "exception "; "include "; "open "; "class " ]

let mli_docs dirs =
  per_line (files ~suffixes:[ ".mli" ] dirs) (fun ls i ->
      let n = Array.length ls in
      let toplevel j kws =
        (not ls.(j).in_comment) && List.exists (fun k -> starts_with k ls.(j).raw) kws
      in
      (* The item's span: up to (excluding) the next top-level item. *)
      let rec doc_after j =
        j < n && (j = i || not (toplevel j item_keywords)) && (ls.(j).doc || doc_after (j + 1))
      in
      (* A doc comment attaches to the item below it only when directly
         above — a blank line in between detaches it (odoc's rule), and
         it would anyway belong to whatever item precedes the blank. *)
      let doc_before = i > 0 && String.trim ls.(i - 1).raw <> "" && ls.(i - 1).commented in
      if (not (toplevel i [ "val " ])) || doc_after i || doc_before then []
      else
        let rest = String.sub ls.(i).raw 4 (String.length ls.(i).raw - 4) in
        [ Printf.sprintf "val %s lacks a doc comment"
            (String.trim (List.hd (String.split_on_char ':' rest))) ])

(* --- failwith ------------------------------------------------------------ *)

(* Robustness: the solver and algorithm layers must not signal
   solver-side failure with stringly exceptions. A [failwith] there is
   an untyped give-up the callers cannot distinguish from infeasibility,
   and a [Failure _] catch swallows give-ups from arbitrary depths —
   exactly the bug class the typed {!Qp_lp.Simplex.outcome} replaced
   (see docs/ROBUSTNESS.md). Every [failwith] or [Failure] token in code
   is flagged; string literals are read too, since an error message
   naming them is equally suspect. *)
let failwith_rule dirs =
  per_line (files ~suffixes:[ ".ml"; ".mli" ] dirs) (fun ls i ->
      let code = ls.(i).code in
      if contains "failwith" code || contains "Failure" code then
        [ "stringly failure: " ^ String.trim ls.(i).raw ]
      else [])

(* --- float-sort ---------------------------------------------------------- *)

(* Numeric soundness: no polymorphic [compare] in array or list sorts
   inside lib/. Polymorphic compare on floats has an unspecified NaN
   ordering, so a NaN-carrying sample lands at an arbitrary position in
   the sorted array — which once skewed the percentile helpers in
   Qp_util.Stats and the valuation sort in Qp_core.Ubp. Typed
   comparators ([Float.compare], [Int.compare], a record comparator)
   make the order total and the intent visible.

   A sort call is suspect when its comparator is the bare polymorphic
   [compare] — directly ([List.sort compare]) or through a trivial
   eta/flip wrapper like [(fun a b -> compare b a)]. The comparator is
   read from the rest of the sort's line, or from the next line when
   the sort ends its line (and the line after that when the next one
   ends in [->]). Qualified comparators ([Float.compare], ...) never
   match, and a token must end at a non-identifier character, so
   [List.sort] does not match inside [List.sort_uniq]. *)

let sort_tokens =
  [ "Array.sort"; "Array.stable_sort"; "Array.fast_sort"; "List.sort";
    "List.stable_sort"; "List.fast_sort"; "List.sort_uniq" ]

let bare_compare s = exists_index s (token_at ~left:true "compare" s)

let suspect_sort code next =
  let n = String.length code in
  List.exists
    (fun tok ->
      exists_index code (fun i ->
          token_at tok code i
          &&
          let rest = String.sub code (i + String.length tok) (n - i - String.length tok) in
          bare_compare (if String.trim rest = "" then next else rest)))
    sort_tokens

let float_sort dirs =
  per_line (files ~suffixes:[ ".ml"; ".mli" ] dirs) (fun ls i ->
      let at k = if k < Array.length ls then ls.(k).code else "" in
      let next =
        let l = String.trim (at (i + 1)) in
        if String.ends_with ~suffix:"->" l then l ^ " " ^ at (i + 2) else l
      in
      if suspect_sort ls.(i).code next then
        [ "polymorphic sort comparator: " ^ String.trim ls.(i).raw ]
      else [])

(* --- cold-lp --------------------------------------------------------------- *)

(* Warm starts: the sweep modules under lib/core solve long sequences
   of LPs over one shared constraint matrix, and those sequences must go
   through one family ([Lp.Batch] / [Simplex.resolve]) so the optimal
   basis is carried between members. A one-shot [Lp.solve] is itself a
   family, but a fresh one: it is the first resolve of a batch that is
   thrown away afterwards, so inside a sweep it still discards the basis
   and pays a full cold (phase-1) solve on every member — exactly the
   regression [bench warmstart] exists to catch, but only when someone
   runs it.

   Heuristic: a file that sweeps — fans work out itself
   ([Parallel.map]) or hands its members to the shared LP sweep
   ([Lp_sweep.run], whose per-member solver LPIP and CIP supply) — and
   calls a one-shot [Lp.solve] ([Lp.Batch.resolve] and
   [Simplex.resolve] don't contain the token) is flagged; one-shot
   solvers with no sweep (e.g. a single bounding LP) pass. *)
let cold_lp dirs =
  let sweeps l = contains "Parallel.map" l.code || contains "Lp_sweep.run" l.code in
  per_line (files ~suffixes:[ ".ml" ] dirs) (fun ls i ->
      if contains "Lp.solve" ls.(i).code && Array.exists sweeps ls then
        [ "one-shot Lp.solve in a sweep module (a fresh family per call, so \
           the basis is thrown away): " ^ String.trim ls.(i).raw ]
      else [])

(* --- obs-labels ------------------------------------------------------------ *)

(* Observability taxonomy: every span/event/counter/gauge/histogram
   label passed to Qp_obs must be a lowercase dotted name under a
   registered prefix. The taxonomy in docs/OBSERVABILITY.md is only
   useful while it stays closed: an unregistered prefix means either a
   typo ("simplx.solve") or a new subsystem whose prefix should be
   registered here and documented there — both worth failing the build
   over.

   For each call to Qp_obs.{with_span,event,counter,gauge_max,observe_ns}
   the first string literal after the call token (same line, or the next
   line for wrapped calls) is checked:
     - characters drawn from [a-z0-9_.], components non-empty;
     - the first dotted component is a registered prefix;
     - a literal used as a concatenation prefix (followed by [^]) must
       end with '.' so the dynamic part starts a new component.
   Dynamic labels built from a non-literal head are invisible to this
   lint — keep their construction next to a registered literal prefix,
   as lib/experiments/runner.ml does with "algo.". *)

(* Registered label prefixes (first dotted component). Keep sorted;
   register new subsystems here *and* in docs/OBSERVABILITY.md. *)
let registered_prefixes =
  [ "algo"; "bench"; "bounds"; "capped"; "cip"; "class_lp"; "conflict";
    "degraded"; "fault"; "layering"; "lp"; "lpip"; "online"; "parallel";
    "runner"; "serve"; "simplex"; "ubp"; "uip"; "xos" ]

(* Labels tolerated without a dot: historical bare names that are also
   registered prefixes (the "degraded" event predates the dotted
   discipline and is pinned by trace-structure tests). *)
let bare_labels = [ "degraded" ]

let obs_calls =
  [ "Qp_obs.with_span"; "Qp_obs.event"; "Qp_obs.counter"; "Qp_obs.gauge_max";
    "Qp_obs.observe_ns" ]

(* First string literal in [s], plus whether a '^' follows it (i.e. the
   literal is the head of a concatenation). *)
let first_literal s =
  match String.index_opt s '"' with
  | None -> None
  | Some i ->
      Option.map
        (fun j ->
          let rest = String.trim (String.sub s (j + 1) (String.length s - j - 1)) in
          (String.sub s (i + 1) (j - i - 1), starts_with "^" rest))
        (String.index_from_opt s (i + 1) '"')

let check_label lit ~is_prefix =
  let chars_ok =
    lit <> ""
    && String.for_all (function 'a' .. 'z' | '0' .. '9' | '_' | '.' -> true | _ -> false) lit
  in
  if not chars_ok then Some "labels are lowercase dotted names ([a-z0-9_.])"
  else if is_prefix && not (String.ends_with ~suffix:"." lit) then
    (* "algo." ^ dynamic: the literal must close a component. *)
    Some "concatenated label prefixes must end with '.'"
  else
    let body = if is_prefix then String.sub lit 0 (String.length lit - 1) else lit in
    let comps = String.split_on_char '.' body in
    if List.mem "" comps then Some "empty label component"
    else if not (List.mem (List.hd comps) registered_prefixes) then
      Some (Printf.sprintf "unregistered label prefix %S" (List.hd comps))
    else if (not is_prefix) && List.length comps = 1 && not (List.mem lit bare_labels) then
      Some "label needs a '.' (prefix.operation)"
    else None

let obs_labels dirs =
  per_line (files ~suffixes:[ ".ml" ] dirs) (fun ls i ->
      let line = ls.(i).code in
      obs_calls
      |> List.concat_map (fun tok ->
             indices line (token_at ~left:true tok line)
             |> List.filter_map (fun pos ->
                    let pos = pos + String.length tok in
                    let rest = String.sub line pos (String.length line - pos) in
                    (* Wrapped calls put the label on the following line. *)
                    let rest =
                      if String.contains rest '"' || i + 1 >= Array.length ls then rest
                      else rest ^ " " ^ ls.(i + 1).code
                    in
                    (* A fully dynamic label is out of lint reach. *)
                    Option.bind (first_literal rest) (fun (lit, is_prefix) ->
                        Option.map (Printf.sprintf "obs label %S: %s" lit)
                          (check_label lit ~is_prefix)))))

(* --- dead-exports ---------------------------------------------------------- *)

(* Every [val] exported by a lib/**/*.mli must be used outside its own
   module — in another lib/ module, or in bin/, bench/, scripts/, test/,
   examples/ or perfbench/. An export nothing else reads is interface
   surface with no client: drop it from the .mli (and its code, if the
   module itself does not use it either).

   A file outside the module counts as a use of [M.name] when, after
   comments and string literals are blanked, it holds the word [name]
   and also names the module [M] (qualified access, a module alias or
   an [open] all spell it). That is a conservative word scan: it can
   miss a dead export whose name another module of that file happens
   to share, but it never flags a live one. The walker skips the lint
   fixtures, so no fixture can keep an export alive. *)

let dead_export_readers = [ "lib"; "bin"; "bench"; "scripts"; "test"; "examples"; "perfbench" ]

let words lines =
  let tbl = Hashtbl.create 1024 in
  Array.iter
    (fun l ->
      String.split_on_char ' ' (String.map (fun c -> if is_ident c then c else ' ') l.bare)
      |> List.iter (fun w -> if w <> "" then Hashtbl.replace tbl w ()))
    lines;
  tbl

let dead_exports _ =
  let readers = files ~suffixes:[ ".ml"; ".mli" ] dead_export_readers in
  let index = List.map (fun p -> (Filename.remove_extension p, words (scan p))) readers in
  readers
  |> List.filter (fun p -> starts_with "lib/" p && Filename.check_suffix p ".mli")
  |> List.concat_map (fun path ->
         let base = Filename.remove_extension path in
         let modname = String.capitalize_ascii (Filename.basename base) in
         let used name =
           List.exists
             (fun (other, ws) -> other <> base && Hashtbl.mem ws modname && Hashtbl.mem ws name)
             index
         in
         per_line [ path ] (fun ls i ->
             (* Names declared by [val name :] lines, at any indentation. *)
             let t = String.trim ls.(i).bare in
             let name =
               if not (starts_with "val " t) then ""
               else
                 let rec stop j = if j < String.length t && is_ident t.[j] then stop (j + 1) else j in
                 String.sub t 4 (stop 4 - 4)
             in
             if name = "" || used name then []
             else [ "val " ^ name ^ " has no use outside its module" ]))

(* --- snapshot-version ------------------------------------------------------ *)

(* The broker snapshot (lib/serve/snapshot.ml) marshals
   [Broker.frozen], whose in-memory layout reaches through the market
   broker's record (Qp_market.Broker.t) into the relational, core and
   market type representations. OCaml's Marshal is not type-safe —
   reading an old payload with a changed layout is undefined behavior —
   so the only safety net is the [format_version] header checked before
   unmarshal. This rule makes forgetting that bump impossible to merge:
   it fingerprints the comment-stripped toplevel [type] declarations of
   every file the payload representation reaches, and fails when the
   fingerprint changes without a matching update here (which the rule
   forces to come with a version bump). *)

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
let payload_files =
  [ "lib/core/hypergraph.ml"; "lib/core/pricing.ml"; "lib/market/broker.ml";
    "lib/market/conflict.mli"; "lib/market/support.mli";
    "lib/relational/agg_state.ml"; "lib/relational/bitset.ml";
    "lib/relational/col_table.ml"; "lib/relational/database.ml";
    "lib/relational/delta.ml"; "lib/relational/expr.ml";
    "lib/relational/query.ml"; "lib/relational/relation.ml";
    "lib/relational/schema.ml"; "lib/relational/value.ml";
    "lib/serve/broker.ml"; "lib/serve/snapshot.ml" ]

(* A toplevel type-declaration block: from a line starting with "type "
   or a continuation "and ", through every indented/blank line, until
   the next toplevel construct. Blank lines inside the block are kept —
   they separate constructors, not blocks. Trailing whitespace must not
   perturb the fingerprint. *)
let canonical path =
  let toplevel =
    [ "let "; "let("; "module "; "open "; "include "; "exception "; "val ";
      "external "; "class "; "type "; "and " ]
  in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "-- %s\n" path;
  ignore
    (Array.fold_left
       (fun in_block l ->
         let line =
           let n = ref (String.length l.code) in
           while !n > 0 && (l.code.[!n - 1] = ' ' || l.code.[!n - 1] = '\t') do decr n done;
           String.sub l.code 0 !n
         in
         let in_block =
           starts_with "type " line || (in_block && starts_with "and " line)
           || (in_block && not (List.exists (fun p -> starts_with p line) toplevel))
         in
         if in_block then Printf.bprintf buf "%s\n" line;
         in_block)
       false (scan path));
  Buffer.contents buf

let snapshot_version args =
  let fp = Digest.to_hex (Digest.string (String.concat "" (List.map canonical payload_files))) in
  (* The version the running code will actually write, read from the
     one authoritative place. *)
  let source = "lib/serve/snapshot.ml" and prefix = "let format_version = " in
  let line, v =
    match
      List.find_mapi
        (fun i l ->
          if not (starts_with prefix l.raw) then None
          else
            let n = String.length prefix in
            int_of_string_opt (String.trim (String.sub l.raw n (String.length l.raw - n)))
            |> Option.map (fun v -> (i + 1, v)))
        (Array.to_list (scan source))
    with
    | Some found -> found
    | None -> Printf.eprintf "snapshot-version: no 'let format_version = N' in %s\n" source; exit 2
  in
  if args = [ "--print" ] then begin
    Printf.printf "format_version      %d\nfingerprint         %s\n" v fp;
    exit 0
  end;
  List.map
    (fun why -> (source, line, why))
    ((if fp = expected_fingerprint then []
      else
        [ Printf.sprintf
            "payload-reachable type declarations changed (fingerprint %s, pinned %s). \
             A broker snapshot written before this change must NOT unmarshal into the \
             new layout: bump format_version (now %d), then re-pin expected_version and \
             expected_fingerprint in scripts/lint.ml from \
             `ocaml scripts/lint.ml snapshot-version --print`"
            fp expected_fingerprint v ])
    @
    if v = expected_version then []
    else
      [ Printf.sprintf
          "format_version=%d but scripts/lint.ml pins %d — update expected_version \
           (and the fingerprint, via --print)"
          v expected_version ])

(* --- entry point ----------------------------------------------------------- *)

type rule = {
  name : string;
  check : string list -> (string * int * string) list;
  dirs : string list;  (** What [check] reads when given no directories. *)
  ok : string;  (** The summary line of a clean run. *)
  fail : int -> string;  (** The summary line of a run with [n] hits. *)
}

let rules =
  [ { name = "mli-docs"; check = mli_docs; dirs = [ "lib" ];
      ok = "doc coverage: every exported value is documented";
      fail = Printf.sprintf "doc coverage: %d undocumented value(s)" };
    { name = "failwith"; check = failwith_rule; dirs = [ "lib/lp"; "lib/core" ];
      ok = "failwith lint: no stringly failures in the solver layers";
      fail =
        Printf.sprintf
          "failwith lint: %d stringly failure(s) — use a typed outcome (Qp_lp.Lp.error)" };
    { name = "float-sort"; check = float_sort; dirs = [ "lib" ];
      ok = "float-sort lint: no polymorphic sort comparators in lib/";
      fail =
        Printf.sprintf
          "float-sort lint: %d polymorphic sort comparator(s) — use Float.compare / \
           Int.compare (or a typed comparator)" };
    { name = "cold-lp"; check = cold_lp; dirs = [ "lib/core" ];
      ok = "cold-LP lint: all sweep modules use the warm family API";
      fail =
        Printf.sprintf
          "cold-LP lint: %d one-shot solve(s) in sweep modules — each starts a fresh \
           family and discards its basis; route the sweep through one Lp.Batch / \
           Simplex family" };
    { name = "obs-labels"; check = obs_labels; dirs = [ "lib"; "bench" ];
      ok = "obs-label lint: all labels under registered prefixes";
      fail =
        Printf.sprintf
          "obs-label lint: %d bad label(s) — labels are lowercase dotted names under \
           a prefix registered in scripts/lint.ml (and documented in \
           docs/OBSERVABILITY.md)" };
    { name = "dead-exports"; check = dead_exports; dirs = [];
      ok = "dead-exports lint: every lib/ export is used outside its module";
      fail =
        Printf.sprintf
          "dead-exports lint: %d exported value(s) with no use outside their module" };
    { name = "snapshot-version"; check = snapshot_version; dirs = [];
      ok =
        Printf.sprintf
          "check-snapshot-version: format_version %d, %d files fingerprinted, layout \
           unchanged"
          expected_version (List.length payload_files);
      fail =
        Printf.sprintf "check-snapshot-version: %d mismatch(es) with the pinned snapshot layout" } ]

(* The one reporter: every hit as [path:line: why], then the summary;
   exit 1 on any hit. *)
let () =
  match Array.to_list Sys.argv with
  | _ :: name :: args when List.exists (fun r -> r.name = name) rules ->
      let rule = List.find (fun r -> r.name = name) rules in
      let hits = rule.check (if args = [] then rule.dirs else args) in
      List.iter (fun (path, line, why) -> Printf.printf "%s:%d: %s\n" path line why) hits;
      if hits = [] then print_endline rule.ok
      else begin
        print_endline (rule.fail (List.length hits));
        exit 1
      end
  | _ ->
      Printf.eprintf "usage: ocaml scripts/lint.ml RULE [DIR|FILE ...]\nrules: %s\n"
        (String.concat ", " (List.map (fun r -> r.name) rules));
      exit 2
