module Database = Qp_relational.Database
module Query = Qp_relational.Query
module Result_set = Qp_relational.Result_set
module Delta = Qp_relational.Delta
module Col_eval = Qp_relational.Col_eval
module Hypergraph = Qp_core.Hypergraph
module Pricing = Qp_core.Pricing
module Algorithms = Qp_core.Algorithms
module Rng = Qp_util.Rng

type built = { hypergraph : Hypergraph.t; stats : Conflict.stats }

type account = { mutable history : int array; mutable spent : float }

type t = {
  db : Database.t;
  seed : int;
  support_size : int;
  support_config : Support.config option;
  mutable deltas : Delta.t array option;
  mutable buyers : (Query.t * float) list;  (* reversed registration order *)
  mutable built : built option;
  mutable pricing : Pricing.t option;
  mutable collected : float;
  accounts : (string, account) Hashtbl.t;
}

let create ?(seed = 42) ?(support_size = 256) ?support_config db =
  {
    db;
    seed;
    support_size;
    support_config;
    deltas = None;
    buyers = [];
    built = None;
    pricing = None;
    collected = 0.0;
    accounts = Hashtbl.create 8;
  }

let database t = t.db

(* The support is sampled lazily so that it can be query-aware: if the
   buyer workload is known by the time the support is needed, neighbors
   are steered toward the queries' footprints (see {!Support}). *)
let support t =
  match t.deltas with
  | Some deltas -> deltas
  | None ->
      let rng = Rng.split (Rng.create t.seed) "support" in
      let deltas =
        match t.buyers with
        | [] ->
            Support.generate ?config:t.support_config ~rng t.db
              ~n:t.support_size
        | buyers ->
            Support.generate_query_aware ?config:t.support_config ~rng
              ~queries:(List.rev_map fst buyers)
              t.db ~n:t.support_size
      in
      t.deltas <- Some deltas;
      deltas

let add_buyer t ~valuation q =
  if valuation < 0.0 then invalid_arg "Broker.add_buyer: negative valuation";
  t.buyers <- (q, valuation) :: t.buyers;
  t.built <- None;
  t.pricing <- None

let buyers t = List.rev t.buyers

let build ?on_progress ?jobs t =
  match t.built with
  | Some _ -> ()
  | None ->
      let h, stats =
        Conflict.hypergraph ?on_progress ?jobs t.db (buyers t) (support t)
      in
      t.built <- Some { hypergraph = h; stats }

let require_built t =
  match t.built with
  | Some b -> b
  | None -> invalid_arg "Broker: call build before pricing or quoting"

let hypergraph t = (require_built t).hypergraph
let build_stats t = (require_built t).stats

let price t ~algorithm =
  let h = (require_built t).hypergraph in
  let spec =
    match Algorithms.find algorithm with
    | spec -> spec
    | exception Not_found ->
        invalid_arg
          (Printf.sprintf "Broker.price: unknown algorithm %S (try one of %s)"
             algorithm
             (String.concat ", " Algorithms.keys))
  in
  let p = spec.Algorithms.solve h in
  t.pricing <- Some p;
  p

let set_pricing t p = t.pricing <- Some p

let active_pricing t =
  match t.pricing with
  | Some p -> p
  | None -> invalid_arg "Broker: no active pricing (call price or set_pricing)"

let expected_revenue t =
  Pricing.revenue (active_pricing t) (require_built t).hypergraph

let quote t q =
  let p = active_pricing t in
  let items = Conflict.conflict_set t.db q (support t) in
  Pricing.price_items p items

let purchase t ~budget q =
  let price = quote t q in
  if price <= budget then begin
    t.collected <- t.collected +. price;
    `Sold (price, Col_eval.run t.db q)
  end
  else `Declined price

let revenue_collected t = t.collected

(* --- history-aware pricing ------------------------------------------- *)

let account t name =
  match Hashtbl.find_opt t.accounts name with
  | Some a -> a
  | None ->
      let a = { history = [||]; spent = 0.0 } in
      Hashtbl.replace t.accounts name a;
      a

let union_sorted a b =
  Array.of_list
    (List.sort_uniq compare (Array.to_list a @ Array.to_list b))

let purchase_as t ~account:name ~budget q =
  let pricing = active_pricing t in
  let acc = account t name in
  let items = Conflict.conflict_set t.db q (support t) in
  let combined = union_sorted acc.history items in
  let marginal =
    Float.max 0.0
      (Pricing.price_items pricing combined
      -. Pricing.price_items pricing acc.history)
  in
  if marginal <= budget then begin
    acc.history <- combined;
    acc.spent <- acc.spent +. marginal;
    t.collected <- t.collected +. marginal;
    `Sold (marginal, Col_eval.run t.db q)
  end
  else `Declined marginal

let account_history t name =
  match Hashtbl.find_opt t.accounts name with
  | Some a -> Array.copy a.history
  | None -> [||]

let account_spent t name =
  match Hashtbl.find_opt t.accounts name with
  | Some a -> a.spent
  | None -> 0.0
