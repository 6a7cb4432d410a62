module Pricing = Qp_core.Pricing
module Hypergraph = Qp_core.Hypergraph
module Rng = Qp_util.Rng

type violation =
  | Not_monotone of { small : int array; large : int array }
  | Not_subadditive of { parts : int array list; whole : int array }

let pp_items fmt items =
  Format.fprintf fmt "{%s}"
    (String.concat "," (Array.to_list (Array.map string_of_int items)))

let pp_violation fmt = function
  | Not_monotone { small; large } ->
      Format.fprintf fmt "monotonicity: p(%a) > p(%a)" pp_items small pp_items
        large
  | Not_subadditive { parts; whole } ->
      Format.fprintf fmt "subadditivity: p(%a) > sum of %d parts" pp_items whole
        (List.length parts)

let eps = 1e-6

let subset a b =
  let sb = Array.to_list b in
  Array.for_all (fun x -> List.mem x sb) a

let union a b =
  Array.of_list (List.sort_uniq Int.compare (Array.to_list a @ Array.to_list b))

let check_pair p a b =
  let pa = Pricing.price_items p a
  and pb = Pricing.price_items p b in
  if subset a b && pa > pb +. eps then
    Some (Not_monotone { small = a; large = b })
  else if subset b a && pb > pa +. eps then
    Some (Not_monotone { small = b; large = a })
  else
    let u = union a b in
    let pu = Pricing.price_items p u in
    if pu > pa +. pb +. eps then
      Some (Not_subadditive { parts = [ a; b ]; whole = u })
    else None

let check_edges p h =
  let edges = Hypergraph.edges h in
  let found = ref None in
  (try
     Array.iter
       (fun (e1 : Hypergraph.edge) ->
         Array.iter
           (fun (e2 : Hypergraph.edge) ->
             if e1.id < e2.id then
               match check_pair p e1.items e2.items with
               | Some v ->
                   found := Some v;
                   raise Exit
               | None -> ())
           edges)
       edges
   with Exit -> ());
  !found

let random_bundle rng n_items =
  if n_items = 0 then [||]
  else
    let size = Rng.int rng (min n_items 16 + 1) in
    Array.of_list (Rng.sample_without_replacement rng size n_items)

let check_random ~rng ~n_items ~trials p =
  let found = ref None in
  (try
     for _ = 1 to trials do
       let a = random_bundle rng n_items and b = random_bundle rng n_items in
       match check_pair p a b with
       | Some v ->
           found := Some v;
           raise Exit
       | None -> ()
     done
   with Exit -> ());
  !found
