(* Dead-export lint: every [val] exported by a lib/**/*.mli must be used
   outside its own module — in another lib/ module, or in bin/, bench/,
   scripts/, test/, examples/ or perfbench/. An export nothing else
   reads is interface surface with no client: drop it from the .mli
   (and its code, if the module itself does not use it either).

   A file outside the module counts as a use of [M.name] when, after
   comments and string literals are blanked, it holds the word [name]
   and also names the module [M] (qualified access, a module alias or
   an [open] all spell it). That is a conservative word scan: it can
   miss a dead export whose name another module of that file happens
   to share, but it never flags a live one.

   Run as:  ocaml scripts/check_dead_exports.ml
   from the repository root. Exits 1 listing every dead export. Wired
   into `make check` as check-dead-exports. *)

let scanned = [ "lib"; "bin"; "bench"; "scripts"; "test"; "examples"; "perfbench" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec source_files dir =
  Array.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      if entry = "" || entry.[0] = '.' || entry.[0] = '_' then acc
      else if Sys.is_directory path then source_files path @ acc
      else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
      then path :: acc
      else acc)
    [] (Sys.readdir dir)

(* Blank out comments (they nest, and may hold strings) and string
   literals (plain and {|quoted|}), keeping character literals such as
   '"' from opening a string. *)
let code_only s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let blank i = if Bytes.get b i <> '\n' then Bytes.set b i ' ' in
  let rec skip_string i =
    if i >= n then n
    else (
      blank i;
      match s.[i] with
      | '\\' when i + 1 < n -> blank (i + 1); skip_string (i + 2)
      | '"' -> i + 1
      | _ -> skip_string (i + 1))
  in
  let rec skip_quoted i =
    if i + 1 >= n then n
    else if s.[i] = '|' && s.[i + 1] = '}' then (blank i; blank (i + 1); i + 2)
    else (blank i; skip_quoted (i + 1))
  in
  let rec skip_comment depth i =
    if i >= n then n
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then (
      blank i; blank (i + 1); skip_comment (depth + 1) (i + 2))
    else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then (
      blank i;
      blank (i + 1);
      if depth = 1 then i + 2 else skip_comment (depth - 1) (i + 2))
    else if s.[i] = '"' then skip_comment depth (skip_string i)
    else (blank i; skip_comment depth (i + 1))
  in
  let rec code i =
    if i < n then
      if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then code (skip_comment 0 i)
      else if s.[i] = '"' then code (skip_string i)
      else if i + 1 < n && s.[i] = '{' && s.[i + 1] = '|' then code (skip_quoted i)
      else if s.[i] = '\'' && i + 2 < n && s.[i + 2] = '\'' then code (i + 3)
      else if s.[i] = '\'' && i + 3 < n && s.[i + 1] = '\\' && s.[i + 3] = '\'' then
        code (i + 4)
      else code (i + 1)
  in
  code 0;
  Bytes.to_string b

let is_ident_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* The identifiers of a text, as a set. *)
let words text =
  let tbl = Hashtbl.create 1024 in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    if is_ident_char text.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident_char text.[!j] do incr j done;
      Hashtbl.replace tbl (String.sub text !i (!j - !i)) ();
      i := !j
    end
    else incr i
  done;
  tbl

(* Names declared by [val name :] lines, at any indentation. *)
let exported_vals text =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if String.length line > 4 && String.sub line 0 4 = "val " then
        let rest = String.sub line 4 (String.length line - 4) in
        let j = ref 0 in
        while !j < String.length rest && is_ident_char rest.[!j] do incr j done;
        if !j > 0 then Some (String.sub rest 0 !j) else None
      else None)
    (String.split_on_char '\n' text)

let () =
  let files = List.sort compare (List.concat_map source_files scanned) in
  let index = List.map (fun path -> (path, words (code_only (read_file path)))) files in
  let own_module path = Filename.remove_extension path in
  let dead = ref [] in
  List.iter
    (fun path ->
      if
        String.length path > 4
        && String.sub path 0 4 = "lib/"
        && Filename.check_suffix path ".mli"
      then begin
        let base = own_module path in
        let modname = String.capitalize_ascii (Filename.basename base) in
        List.iter
          (fun name ->
            let used =
              List.exists
                (fun (other, ws) ->
                  own_module other <> base && Hashtbl.mem ws modname
                  && Hashtbl.mem ws name)
                index
            in
            if not used then dead := Printf.sprintf "%s: val %s" path name :: !dead)
          (exported_vals (code_only (read_file path)))
      end)
    files;
  match List.rev !dead with
  | [] ->
      Printf.printf "dead-exports lint: every lib/ export is used outside its module\n"
  | dead ->
      List.iter print_endline dead;
      Printf.printf
        "dead-exports lint: %d exported value(s) with no use outside their module\n"
        (List.length dead);
      exit 1
