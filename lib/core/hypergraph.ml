type edge = {
  id : int;
  name : string;
  items : int array;
  valuation : float;
}

type classes = {
  n_classes : int;
  class_of_item : int array;
  members : int array array;
  class_edges : int array array;
  edge_classes : int array array;
}

type t = {
  n_items : int;
  edges : edge array;
  mutable cached_classes : classes option;
}

(* [v < 0.0] alone lets NaN through. *)
let valid_valuation v = Float.is_finite v && v >= 0.0

let create ~n_items specs =
  if n_items < 0 then invalid_arg "Hypergraph.create: negative n_items";
  let edges =
    Array.mapi
      (fun id (name, items, valuation) ->
        if not (valid_valuation valuation) then
          invalid_arg
            (Printf.sprintf
               "Hypergraph.create: valuation for %s must be finite and \
                non-negative"
               name);
        let items = Array.copy items in
        Array.sort Int.compare items;
        let items =
          Array.of_list (List.sort_uniq Int.compare (Array.to_list items))
        in
        Array.iter
          (fun j ->
            if j < 0 || j >= n_items then
              invalid_arg
                (Printf.sprintf "Hypergraph.create: item %d out of range in %s" j
                   name))
          items;
        { id; name; items; valuation })
      specs
  in
  { n_items; edges; cached_classes = None }

let n_items t = t.n_items
let m t = Array.length t.edges
let edges t = t.edges
let edge t i = t.edges.(i)
let valuations t = Array.map (fun e -> e.valuation) t.edges

let with_valuations t vals =
  if Array.length vals <> Array.length t.edges then
    invalid_arg "Hypergraph.with_valuations: arity mismatch";
  if not (Array.for_all valid_valuation vals) then
    invalid_arg
      "Hypergraph.with_valuations: valuations must be finite and non-negative";
  (* Classes depend only on structure, so the cache carries over. *)
  {
    t with
    edges = Array.mapi (fun i e -> { e with valuation = vals.(i) }) t.edges;
  }

let degrees t =
  let d = Array.make t.n_items 0 in
  Array.iter (fun e -> Array.iter (fun j -> d.(j) <- d.(j) + 1) e.items) t.edges;
  d

let degree t j = (degrees t).(j)
let max_degree t = Array.fold_left max 0 (degrees t)

let max_edge_size t =
  Array.fold_left (fun acc e -> max acc (Array.length e.items)) 0 t.edges

let avg_edge_size t =
  if Array.length t.edges = 0 then 0.0
  else
    Float.of_int
      (Array.fold_left (fun acc e -> acc + Array.length e.items) 0 t.edges)
    /. Float.of_int (Array.length t.edges)

let sum_valuations t = Array.fold_left (fun acc e -> acc +. e.valuation) 0.0 t.edges

let edges_of_item t j =
  Array.fold_left
    (fun acc e -> if Array.exists (fun i -> i = j) e.items then e.id :: acc else acc)
    [] t.edges
  |> List.rev

let compute_classes t =
  (* Pattern of an item = the sorted list of edges containing it. *)
  let patterns = Array.make t.n_items [] in
  Array.iter
    (fun e -> Array.iter (fun j -> patterns.(j) <- e.id :: patterns.(j)) e.items)
    t.edges;
  (* Edges are visited in increasing id order, so each pattern list is in
     decreasing id order — a canonical form already. *)
  let by_pattern : (int list, int list) Hashtbl.t = Hashtbl.create 256 in
  for j = t.n_items - 1 downto 0 do
    let cur = Option.value (Hashtbl.find_opt by_pattern patterns.(j)) ~default:[] in
    Hashtbl.replace by_pattern patterns.(j) (j :: cur)
  done;
  let n_classes = Hashtbl.length by_pattern in
  let members = Array.make n_classes [||] in
  let class_edges = Array.make n_classes [||] in
  let class_of_item = Array.make t.n_items (-1) in
  let next = ref 0 in
  Hashtbl.iter
    (fun pattern items ->
      let c = !next in
      incr next;
      members.(c) <- Array.of_list items;
      let es = Array.of_list pattern in
      Array.sort Int.compare es;
      class_edges.(c) <- es;
      List.iter (fun j -> class_of_item.(j) <- c) items)
    by_pattern;
  let edge_class_lists = Array.make (Array.length t.edges) [] in
  Array.iteri
    (fun c es ->
      Array.iter (fun e -> edge_class_lists.(e) <- c :: edge_class_lists.(e)) es)
    class_edges;
  let edge_classes = Array.map Array.of_list edge_class_lists in
  { n_classes; class_of_item; members; class_edges; edge_classes }

let classes t =
  match t.cached_classes with
  | Some c -> c
  | None ->
      let c = compute_classes t in
      t.cached_classes <- Some c;
      c

let spread_class_weights t w_class =
  let c = classes t in
  if Array.length w_class <> c.n_classes then
    invalid_arg "Hypergraph.spread_class_weights: arity mismatch";
  let w = Array.make t.n_items 0.0 in
  Array.iteri
    (fun ci members -> if Array.length members > 0 then w.(members.(0)) <- w_class.(ci))
    c.members;
  w
