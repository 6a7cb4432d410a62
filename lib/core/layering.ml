(* One layer: a greedy cover of the items of [es] (most new items first,
   higher valuation breaking ties, the earlier edge breaking the rest)
   followed by a minimalization pass that drops redundant edges,
   cheapest first — minimality is what guarantees unique items. Returns
   the positions in [es] of the kept edges, most recently picked first.

   All work is on integer arrays. [deg], [start] and [universe] are
   per-item scratch of length [n_items]; [deg] is all zeros on entry and
   is left all zeros on return. *)
let minimal_cover ~deg ~start ~universe (es : Hypergraph.edge array) =
  let m = Array.length es in
  (* The items to cover, and how many of the edges hold each. *)
  let n_u = ref 0 in
  Array.iter
    (fun (e : Hypergraph.edge) ->
      Array.iter
        (fun j ->
          if deg.(j) = 0 then begin
            universe.(!n_u) <- j;
            incr n_u
          end;
          deg.(j) <- deg.(j) + 1)
        e.items)
    es;
  (* CSR incidence: after the fill, the positions of the edges holding
     item j are inc.(start.(j) - deg.(j)) .. inc.(start.(j) - 1). *)
  let total = ref 0 in
  for u = 0 to !n_u - 1 do
    let j = universe.(u) in
    start.(j) <- !total;
    total := !total + deg.(j)
  done;
  let inc = Array.make !total 0 in
  Array.iteri
    (fun p (e : Hypergraph.edge) ->
      Array.iter
        (fun j ->
          inc.(start.(j)) <- p;
          start.(j) <- start.(j) + 1)
        e.items)
    es;
  (* Greedy: [gain.(p)] counts the uncovered items of edge p; covering
     item j decrements it for every edge holding j and zeroes [deg.(j)],
     which marks j covered. A picked edge keeps gain 0, so it can never
     win again while some item is uncovered. *)
  let gain = Array.map (fun (e : Hypergraph.edge) -> Array.length e.items) es in
  let uncovered = ref !n_u in
  let chosen = ref [] in
  while !uncovered > 0 do
    let best = ref 0 in
    for p = 1 to m - 1 do
      let g = gain.(p) and bg = gain.(!best) in
      if g > bg || (g = bg && es.(p).valuation > es.(!best).valuation) then
        best := p
    done;
    let b = !best in
    assert (gain.(b) > 0) (* the edges always cover their own items *);
    chosen := b :: !chosen;
    Array.iter
      (fun j ->
        let d = deg.(j) in
        if d > 0 then begin
          for k = start.(j) - d to start.(j) - 1 do
            gain.(inc.(k)) <- gain.(inc.(k)) - 1
          done;
          deg.(j) <- 0;
          decr uncovered
        end)
      es.(b).items
  done;
  (* Minimalize: [deg] now counts, per item, the chosen edges holding
     it. An edge is redundant iff each of its items is held at least
     twice; dropping it decrements those counts. Trying cheap edges
     first keeps value in the layer. *)
  let chosen = !chosen in
  List.iter
    (fun p -> Array.iter (fun j -> deg.(j) <- deg.(j) + 1) es.(p).items)
    chosen;
  let by_value_asc =
    List.stable_sort
      (fun a b -> Float.compare es.(a).valuation es.(b).valuation)
      chosen
  in
  let dropped = Array.make m false in
  List.iter
    (fun p ->
      let items = es.(p).items in
      if Array.for_all (fun j -> deg.(j) >= 2) items then begin
        dropped.(p) <- true;
        Array.iter (fun j -> deg.(j) <- deg.(j) - 1) items
      end)
    by_value_asc;
  let cover = List.filter (fun p -> not dropped.(p)) chosen in
  (* The cover holds every item, so zeroing its items resets [deg]. *)
  List.iter (fun p -> Array.iter (fun j -> deg.(j) <- 0) es.(p).items) cover;
  cover

let layers h =
  let n = Hypergraph.n_items h in
  let deg = Array.make n 0
  and start = Array.make n 0
  and universe = Array.make n 0 in
  let non_empty =
    Array.to_list (Hypergraph.edges h)
    |> List.filter (fun (e : Hypergraph.edge) -> Array.length e.items > 0)
    |> Array.of_list
  in
  let rec peel es acc =
    if Array.length es = 0 then List.rev acc
    else
      let layer = minimal_cover ~deg ~start ~universe es in
      let in_layer = Array.make (Array.length es) false in
      List.iter (fun p -> in_layer.(p) <- true) layer;
      let rest =
        Array.to_list es
        |> List.filteri (fun p _ -> not in_layer.(p))
        |> Array.of_list
      in
      peel rest (List.map (fun p -> es.(p)) layer :: acc)
  in
  peel non_empty []

let layer_value layer =
  List.fold_left (fun acc (e : Hypergraph.edge) -> acc +. e.valuation) 0.0 layer

let price_layer h layer =
  let w = Array.make (Hypergraph.n_items h) 0.0 in
  (* Count item occurrences within the layer; an item used once is the
     unique item minimality promises. *)
  let occurrences = Hashtbl.create 64 in
  List.iter
    (fun (e : Hypergraph.edge) ->
      Array.iter
        (fun j ->
          Hashtbl.replace occurrences j
            (1 + Option.value (Hashtbl.find_opt occurrences j) ~default:0))
        e.items)
    layer;
  List.iter
    (fun (e : Hypergraph.edge) ->
      match
        Array.find_opt (fun j -> Hashtbl.find occurrences j = 1) e.items
      with
      | Some j -> w.(j) <- e.valuation
      | None -> assert false (* impossible for a minimal cover *))
    layer;
  Pricing.Item w

let solve h =
  Qp_obs.with_span "layering.solve"
    ~args:(fun () -> [ ("edges", Qp_obs.Int (Hypergraph.m h)) ])
  @@ fun () ->
  match layers h with
  | [] -> Pricing.Item (Array.make (Hypergraph.n_items h) 0.0)
  | ls ->
      let best =
        List.fold_left
          (fun acc layer ->
            match acc with
            | Some best_layer when layer_value best_layer >= layer_value layer -> acc
            | _ -> Some layer)
          None ls
      in
      let best = Option.get best in
      Qp_obs.annotate (fun () ->
          [
            ("layers", Qp_obs.Int (List.length ls));
            ("best_layer_edges", Qp_obs.Int (List.length best));
            ("best_layer_value", Qp_obs.Float (layer_value best));
          ]);
      price_layer h best
