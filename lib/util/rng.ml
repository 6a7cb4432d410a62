type t = { state : Random.State.t; lineage : string }

let create seed =
  { state = Random.State.make [| seed; 0x9e3779b9 |]; lineage = string_of_int seed }

let split t label =
  let lineage = t.lineage ^ "/" ^ label in
  let h = Hashtbl.hash lineage in
  (* Mix the parent's seed lineage with the label so sibling splits are
     independent even for hash-adjacent labels. *)
  let h' = (h * 0x85ebca6b) lxor (h lsr 13) in
  { state = Random.State.make [| h; h'; String.length lineage |]; lineage }

let int t bound =
  assert (bound > 0);
  Random.State.int t.state bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound = Random.State.float t.state bound
let bool t = Random.State.bool t.state

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let pick_list t l = pick t (Array.of_list l)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k n =
  assert (k <= n && k >= 0);
  (* Floyd's algorithm: O(k) expected draws, no O(n) allocation. *)
  let seen = Hashtbl.create (2 * k) in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    if Hashtbl.mem seen r then Hashtbl.replace seen j ()
    else Hashtbl.replace seen r ()
  done;
  Hashtbl.fold (fun x () acc -> x :: acc) seen [] |> List.sort Int.compare
