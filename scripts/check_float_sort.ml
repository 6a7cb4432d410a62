(* Numeric-soundness lint: no polymorphic [compare] in array or list
   sorts inside lib/. Polymorphic compare on floats has an unspecified NaN
   ordering, so a NaN-carrying sample lands at an arbitrary position in
   the sorted array — which once skewed the percentile helpers in
   Qp_util.Stats and the valuation sort in Qp_core.Ubp. Typed
   comparators ([Float.compare], [Int.compare], a record comparator)
   make the order total and the intent visible.

   Run as:  ocaml scripts/check_float_sort.ml lib
   Flags every [Array.sort]/[Array.stable_sort]/[Array.fast_sort] and
   [List.sort]/[List.stable_sort]/[List.fast_sort]/[List.sort_uniq]
   call whose comparator is the bare polymorphic [compare] — directly
   ([List.sort compare]) or through a trivial eta/flip wrapper like
   [(fun a b -> compare b a)]. The comparator is read from the rest of
   the sort's line, or from the next line when the sort ends its line
   (and the line after that when the next one ends in [->]).
   Comments are stripped (they nest). Exits 1 on any hit outside the
   allowlist. Wired into `make check`. *)

(* (path, substring-of-line) pairs that are knowingly tolerated, e.g. a
   sort over a type where polymorphic compare is argued correct. Keep
   entries justified in a nearby code comment. *)
let allowlist : (string * string) list = []

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        Array.of_list (List.rev acc)
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

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A sort call is suspect when the token right after the sort function
   resolves to bare polymorphic [compare]: either the identifier itself
   or a one-line [fun a b -> compare ...] wrapper (argument flips and
   eta-expansions included). Qualified comparators ([Float.compare],
   [Value.compare], ...) never match: the pattern requires [compare]
   preceded by a non-identifier character. *)
let is_ident c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '\''

let bare_compare_after s =
  let n = String.length s in
  let rec find i =
    if i + 7 > n then false
    else if
      String.sub s i 7 = "compare"
      && (i = 0 || not (is_ident s.[i - 1]))
      && (i + 7 = n || not (is_ident s.[i + 7]))
    then true
    else find (i + 1)
  in
  find 0

let sort_tokens =
  [
    "Array.sort"; "Array.stable_sort"; "Array.fast_sort"; "List.sort";
    "List.stable_sort"; "List.fast_sort"; "List.sort_uniq";
  ]

(* [code] is a comment-free line and [next] the comparator text that
   follows it (see [check_file]): the comparator starts after the sort
   token, or in [next] when nothing but blanks follows the token. A
   token must end at a non-identifier character, so [List.sort] does
   not match inside [List.sort_uniq]. *)
let suspect code next =
  List.exists
    (fun tok ->
      let tn = String.length tok in
      let n = String.length code in
      let rec scan i =
        if i + tn > n then false
        else if
          String.sub code i tn = tok
          && (i + tn = n || not (is_ident code.[i + tn]))
        then
          let rest = String.sub code (i + tn) (n - i - tn) in
          let rest = if String.trim rest = "" then next else rest in
          bare_compare_after rest || scan (i + tn)
        else scan (i + 1)
      in
      scan 0)
    sort_tokens

let allowlisted path line =
  List.exists (fun (p, sub) -> p = path && contains sub line) allowlist

let check_file path =
  let lines = read_lines path in
  let depth = ref 0 in
  let code = Array.map (strip_comments depth) lines in
  let hits = ref [] in
  Array.iteri
    (fun i line ->
      let line_at k = if k < Array.length code then code.(k) else "" in
      let next =
        let l = String.trim (line_at (i + 1)) in
        let n = String.length l in
        if n >= 2 && String.sub l (n - 2) 2 = "->" then l ^ " " ^ line_at (i + 2)
        else l
      in
      if suspect code.(i) next && not (allowlisted path line) then
        hits := (i + 1, String.trim line) :: !hits)
    lines;
  List.rev !hits

let rec walk dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then walk path
         else if
           Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
         then [ path ]
         else [])

let () =
  let dirs =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as dirs) -> dirs
    | _ -> [ "lib" ]
  in
  let failures = ref 0 in
  List.iter
    (fun dir ->
      List.iter
        (fun path ->
          List.iter
            (fun (line, text) ->
              incr failures;
              Printf.printf "%s:%d: polymorphic sort comparator: %s\n" path
                line text)
            (check_file path))
        (walk dir))
    dirs;
  if !failures > 0 then begin
    Printf.printf
      "float-sort lint: %d polymorphic sort comparator(s) — use \
       Float.compare / Int.compare (or a typed comparator), or add an \
       argued allowlist entry\n"
      !failures;
    exit 1
  end
  else
    print_endline "float-sort lint: no polymorphic sort comparators in lib/"
