(* Warm-start lint: the sweep modules under lib/core solve long
   sequences of LPs over one shared constraint matrix, and those
   sequences must go through one family ([Lp.Batch] /
   [Simplex.resolve]) so the optimal basis is carried between members.
   A one-shot [Lp.solve] is itself a family, but a fresh one: it is the
   first resolve of a batch that is thrown away afterwards, so inside a
   sweep it still discards the basis and pays a full cold (phase-1)
   solve on every member — exactly the regression [bench warmstart]
   exists to catch, but only when someone runs it.

   Run as:  ocaml scripts/check_cold_lp_sweeps.ml lib/core
   Heuristic: a file that sweeps — fans work out itself
   ([Parallel.map]) or hands its members to the shared LP sweep
   ([Lp_sweep.run], whose per-member solver LPIP and CIP supply) — and
   calls a one-shot [Lp.solve] (the token outside comments, excluding
   [Lp.Batch.*]) is flagged; one-shot solvers with no sweep (e.g. a
   single bounding LP) pass. Exits 1 on any hit outside the allowlist.
   Wired into `make check` as check-cold-lp. *)

(* (path, substring-of-line) pairs that are knowingly tolerated — e.g. a
   sweep whose members share nothing, where a family would only add
   state. Keep each entry argued in a comment here. *)
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

(* A one-shot solve is the token [Lp.solve] — [Lp.Batch.resolve] and
   [Simplex.resolve] don't contain it, so only one-shot calls hit. *)
let cold_solve code = contains "Lp.solve" code

let allowlisted path line =
  List.exists (fun (p, sub) -> p = path && contains sub line) allowlist

let check_file path =
  let lines = read_lines path in
  let depth = ref 0 in
  let sweeps = ref false in
  let solves = ref [] in
  Array.iteri
    (fun i line ->
      let code = strip_comments depth line in
      if contains "Parallel.map" code || contains "Lp_sweep.run" code then
        sweeps := true;
      if cold_solve code && not (allowlisted path line) then
        solves := (i + 1, String.trim line) :: !solves)
    lines;
  if !sweeps then List.rev !solves else []

let () =
  let dirs =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as dirs) -> dirs
    | _ -> [ "lib/core" ]
  in
  let failures = ref 0 in
  List.iter
    (fun dir ->
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".ml")
        |> List.sort compare
      in
      List.iter
        (fun f ->
          let path = Filename.concat dir f in
          List.iter
            (fun (line, text) ->
              incr failures;
              Printf.printf
                "%s:%d: one-shot Lp.solve in a sweep module (a fresh family \
                 per call, so the basis is thrown away): %s\n"
                path line text)
            (check_file path))
        files)
    dirs;
  if !failures > 0 then begin
    Printf.printf
      "cold-LP lint: %d one-shot solve(s) in sweep modules — each starts \
       a fresh family and discards its basis; route the sweep through one \
       Lp.Batch / Simplex family or add an argued allowlist entry\n"
      !failures;
    exit 1
  end
  else print_endline "cold-LP lint: all sweep modules use the warm family API"
