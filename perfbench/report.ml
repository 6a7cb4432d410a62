(* What one benchmark run reports: named metrics with unit and
   direction, the operation tally, and the output checks that failed. *)

type metric = {
  name : string;
  unit_ : string;
  better : [ `Lower | `Higher ];
  value : float;
  note : string;  (** how the value was obtained, for the human table *)
}

type t = {
  mutable e2e : metric list;  (** newest first *)
  mutable layers : metric list;  (** newest first *)
  mutable problems : string list;  (** failed output checks, newest first *)
  mutable attempted : int;
  mutable failed : int;
}

let create () = { e2e = []; layers = []; problems = []; attempted = 0; failed = 0 }

let e2e r ?(note = "") name unit_ better value =
  r.e2e <- { name; unit_; better; value; note } :: r.e2e

let layer r ?(note = "") name unit_ better value =
  r.layers <- { name; unit_; better; value; note } :: r.layers

let check r ok what = if not ok then r.problems <- what :: r.problems

(* One attempted operation (a build, a family solve, a request). *)
let op r ok =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1

let better_name = function `Lower -> "lower" | `Higher -> "higher"

(* The human table (every metric by name, unit and direction), then the
   result object as the last line of standard output. *)
let print r ~trace =
  let metrics = List.rev (if trace then r.layers else r.e2e) in
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then
        check r false (m.name ^ " is not a finite number"))
    metrics;
  List.iter
    (fun m ->
      Printf.printf "  %-28s %14.6g %-6s %-6s better  %s\n" m.name m.value
        m.unit_ (better_name m.better) m.note)
    metrics;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev r.problems);
  Printf.printf "attempted %d, failed %d, checks %s\n" r.attempted r.failed
    (if r.problems = [] then "passed" else "FAILED");
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (value m.value)
          m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.problems = [] && r.failed = 0)
    r.attempted r.failed (String.concat ", " fields)
