(* Tests for the six pricing algorithms: exact optimality of the sweep
   algorithms against brute force, structural guarantees of layering,
   LP algorithms' must-sell/validity properties, and the theoretical
   behaviors on the lemma instances. *)

module H = Qp_core.Hypergraph
module P = Qp_core.Pricing
module Ubp = Qp_core.Ubp
module Uip = Qp_core.Uip
module Lpip = Qp_core.Lpip
module Cip = Qp_core.Cip
module Layering = Qp_core.Layering
module Xos = Qp_core.Xos
module LB = Qp_core.Lower_bounds
module Algorithms = Qp_core.Algorithms

let random_h ?(max_n = 8) ?(max_m = 10) rand =
  let n = 1 + Random.State.int rand max_n in
  let m = 1 + Random.State.int rand max_m in
  let specs =
    Array.init m (fun i ->
        let size = Random.State.int rand (n + 1) in
        let items = Array.init size (fun _ -> Random.State.int rand n) in
        ( Printf.sprintf "e%d" i,
          items,
          Float.of_int (1 + Random.State.int rand 30) ))
  in
  H.create ~n_items:n specs

(* Brute force over all candidate uniform prices (any optimum is at a
   valuation). *)
let brute_ubp h =
  Array.fold_left
    (fun best (e : H.edge) ->
      Float.max best (P.revenue (P.Uniform_bundle e.valuation) h))
    0.0 (H.edges h)

let brute_uip h =
  Array.fold_left
    (fun best (e : H.edge) ->
      if e.items = [||] then best
      else
        let w = e.valuation /. Float.of_int (Array.length e.items) in
        Float.max best (P.revenue (P.Item (Array.make (H.n_items h) w)) h))
    0.0 (H.edges h)

let test_ubp_optimal_property () =
  let rand = Random.State.make [| 1 |] in
  for _ = 1 to 300 do
    let h = random_h rand in
    let _, revenue = Ubp.optimal_price h in
    Alcotest.(check (float 1e-6)) "matches brute force" (brute_ubp h) revenue;
    Alcotest.(check (float 1e-6)) "pricing evaluates to it" revenue
      (P.revenue (Ubp.solve h) h)
  done

let test_uip_optimal_property () =
  let rand = Random.State.make [| 2 |] in
  for _ = 1 to 300 do
    let h = random_h rand in
    let _, revenue = Uip.optimal_weight h in
    Alcotest.(check (float 1e-6)) "matches brute force" (brute_uip h) revenue
  done

let test_ubp_ties () =
  let h =
    H.create ~n_items:1
      [| ("a", [| 0 |], 5.0); ("b", [| 0 |], 5.0); ("c", [| 0 |], 3.0) |]
  in
  let price, revenue = Ubp.optimal_price h in
  Alcotest.(check (float 1e-9)) "price 5" 5.0 price;
  Alcotest.(check (float 1e-9)) "revenue 10" 10.0 revenue

let test_ubp_empty () =
  let h = H.create ~n_items:0 [||] in
  let _, revenue = Ubp.optimal_price h in
  Alcotest.(check (float 1e-9)) "zero" 0.0 revenue

let test_uip_skips_empty_edges () =
  let h = H.create ~n_items:2 [| ("e", [||], 100.0); ("a", [| 0 |], 2.0) |] in
  let w, revenue = Uip.optimal_weight h in
  Alcotest.(check (float 1e-9)) "w" 2.0 w;
  Alcotest.(check (float 1e-9)) "revenue" 2.0 revenue

(* Regression: an empty bundle is free (f(∅) = 0), so its valuation must
   not lure UBP into a high bundle price that sells to nobody real. The
   seed code charged the empty-conflict-set buyer its full valuation and
   reported price 100 / revenue 100 here. *)
let test_ubp_ignores_empty_edges () =
  let h = H.create ~n_items:2 [| ("empty", [||], 100.0); ("a", [| 0 |], 10.0) |] in
  let price, revenue = Ubp.optimal_price h in
  Alcotest.(check (float 1e-9)) "price from the real buyer" 10.0 price;
  Alcotest.(check (float 1e-9)) "revenue from the real buyer" 10.0 revenue;
  Alcotest.(check (float 1e-9)) "pricing evaluates to it" 10.0
    (P.revenue (Ubp.solve h) h)

(* The set-based Layering this library shipped before its integer-array
   rewrite, kept verbatim as a test-only reference: every greedy pick
   re-folds the remaining edges against an [Int_set], and
   minimalization rebuilds the item set of the cover without each
   chosen edge. [Layering.layers] must peel the same edges, in the same
   order, layer by layer. *)
module Reference_layering = struct
  module Int_set = Set.Make (Int)

  let items_of edges =
    List.fold_left
      (fun acc (e : H.edge) ->
        Array.fold_left (fun acc j -> Int_set.add j acc) acc e.items)
      Int_set.empty edges

  let minimal_cover edges =
    let universe = items_of edges in
    let uncovered = ref universe in
    let chosen = ref [] in
    let remaining = ref edges in
    while not (Int_set.is_empty !uncovered) do
      let gain (e : H.edge) =
        Array.fold_left
          (fun acc j -> if Int_set.mem j !uncovered then acc + 1 else acc)
          0 e.items
      in
      let best =
        List.fold_left
          (fun acc e ->
            let g = gain e in
            match acc with
            | Some (bg, (be : H.edge)) ->
                if g > bg || (g = bg && e.H.valuation > be.valuation) then
                  Some (g, e)
                else acc
            | None -> Some (g, e))
          None !remaining
      in
      match best with
      | Some (g, e) when g > 0 ->
          chosen := e :: !chosen;
          remaining := List.filter (fun (e' : H.edge) -> e'.id <> e.id) !remaining;
          uncovered :=
            Array.fold_left (fun acc j -> Int_set.remove j acc) !uncovered e.items
      | _ -> assert false
    done;
    let by_value_asc =
      List.sort
        (fun (a : H.edge) (b : H.edge) -> compare a.valuation b.valuation)
        !chosen
    in
    let cover = ref !chosen in
    List.iter
      (fun (e : H.edge) ->
        let without = List.filter (fun (e' : H.edge) -> e'.id <> e.id) !cover in
        if Int_set.equal (items_of without) universe then cover := without)
      by_value_asc;
    !cover

  let layers h =
    let non_empty =
      Array.to_list (H.edges h)
      |> List.filter (fun (e : H.edge) -> Array.length e.items > 0)
    in
    let rec peel remaining acc =
      match remaining with
      | [] -> List.rev acc
      | _ ->
          let layer = minimal_cover remaining in
          let layer_ids = Int_set.of_list (List.map (fun (e : H.edge) -> e.id) layer) in
          let rest =
            List.filter
              (fun (e : H.edge) -> not (Int_set.mem e.id layer_ids))
              remaining
          in
          peel rest (layer :: acc)
    in
    peel non_empty []
end

(* Random instances built to stress tie-breaks and degenerate edges:
   valuations from {0, 0.1, 0.2, 0.3} (ties, zeros, and base prices
   w*|e| that land within Capped's 1e-12 buying tolerance of a
   valuation), repeated item sets, empty and single-item edges, and now
   and then a larger instance deep enough for many layers. *)
let tie_heavy_h rand =
  let big = Random.State.int rand 5 = 0 in
  let n = 1 + Random.State.int rand (if big then 40 else 10) in
  let m = Random.State.int rand (if big then 80 else 16) in
  let items = Array.make m [||] in
  for i = 0 to m - 1 do
    items.(i) <-
      (match Random.State.int rand 6 with
      | 0 when i > 0 -> items.(Random.State.int rand i)
      | 1 -> [||]
      | 2 -> [| Random.State.int rand n |]
      | _ ->
          Array.init
            (1 + Random.State.int rand n)
            (fun _ -> Random.State.int rand n))
  done;
  H.create ~n_items:n
    (Array.mapi
       (fun i it ->
         (Printf.sprintf "e%d" i, it, 0.1 *. Float.of_int (Random.State.int rand 4)))
       items)

(* Layering structural guarantees. *)
let test_layering_layers_structure () =
  let rand = Random.State.make [| 3 |] in
  for _ = 1 to 150 do
    let h = random_h rand in
    let layers = Layering.layers h in
    (* layers partition the non-empty edges *)
    let ids = List.concat_map (List.map (fun (e : H.edge) -> e.id)) layers in
    let non_empty =
      Array.to_list (H.edges h)
      |> List.filter_map (fun (e : H.edge) ->
             if e.items = [||] then None else Some e.id)
    in
    Alcotest.(check (list int)) "partition" (List.sort compare non_empty)
      (List.sort compare ids);
    (* every edge in a layer owns a unique item within the layer *)
    List.iter
      (fun layer ->
        List.iter
          (fun (e : H.edge) ->
            let unique =
              Array.exists
                (fun j ->
                  List.for_all
                    (fun (e' : H.edge) ->
                      e'.id = e.id || not (Array.exists (( = ) j) e'.items))
                    layer)
                e.items
            in
            Alcotest.(check bool) "unique item exists" true unique)
          layer)
      layers
  done

let test_layering_extracts_best_layer () =
  let rand = Random.State.make [| 4 |] in
  for _ = 1 to 150 do
    let h = random_h rand in
    let layers = Layering.layers h in
    let best_layer_value =
      List.fold_left
        (fun acc layer ->
          Float.max acc
            (List.fold_left (fun a (e : H.edge) -> a +. e.valuation) 0.0 layer))
        0.0 layers
    in
    let revenue = P.revenue (Layering.solve h) h in
    Alcotest.(check bool) "revenue >= best layer value" true
      (revenue >= best_layer_value -. 1e-6)
  done

(* LP-based algorithms: validity and revenue sanity on random instances. *)
let test_lp_algorithms_validity () =
  let rand = Random.State.make [| 5 |] in
  for _ = 1 to 60 do
    let h = random_h ~max_n:6 ~max_m:8 rand in
    List.iter
      (fun solve ->
        let p = solve h in
        Alcotest.(check bool) "valid" true (P.is_valid p h);
        let revenue = P.revenue p h in
        Alcotest.(check bool) "0 <= revenue <= sum v" true
          (revenue >= -1e-9 && revenue <= H.sum_valuations h +. 1e-6))
      [ Ubp.solve; Uip.solve; Lpip.solve; Cip.solve; Layering.solve; Xos.solve ]
  done

let test_lpip_dominates_trivial () =
  (* On a single-edge instance LPIP extracts the full valuation. *)
  let h = H.create ~n_items:3 [| ("a", [| 0; 1 |], 7.0) |] in
  Alcotest.(check (float 1e-6)) "full extraction" 7.0
    (P.revenue (Lpip.solve h) h)

let test_lpip_candidate_cap () =
  let rand = Random.State.make [| 6 |] in
  let h = random_h ~max_n:6 ~max_m:10 rand in
  let full = P.revenue (Lpip.solve h) h in
  let capped =
    P.revenue
      (Lpip.solve
         ~options:{ Lpip.max_candidates = Some 2; max_pivots = 100_000; jobs = None }
         h)
      h
  in
  Alcotest.(check bool) "capped <= full" true (capped <= full +. 1e-6);
  let lps =
    (Lpip.solve_report
       ~options:{ Lpip.max_candidates = Some 2; max_pivots = 100_000; jobs = None }
       h)
      .Lpip.solved
  in
  Alcotest.(check bool) "at most 2 LPs" true (lps <= 2)

let test_cip_grid () =
  let grid = Cip.capacity_grid ~epsilon:1.0 ~max_degree:8 in
  Alcotest.(check bool) "starts at 1" true (List.hd grid = 1.0);
  Alcotest.(check bool) "ends at B" true
    (List.rev grid |> List.hd = 8.0);
  Alcotest.(check bool) "monotone" true
    (List.sort compare grid = grid);
  Alcotest.(check (list (float 1e-9))) "empty grid for degree 0" []
    (Cip.capacity_grid ~epsilon:0.5 ~max_degree:0)

(* Adversarial (epsilon, max_degree) pairs where the grown point
   1*(1+eps)^t lands a relative hair under B: the grid used to keep both
   it and the appended B, spending a full LP solve on a duplicate
   capacity. *)
let test_cip_grid_dedupe () =
  let pairs =
    [
      (1.0 -. 1e-13, 2);
      ((2.0 *. (1.0 -. 5e-14)) -. 1.0, 8);
      (1.0, 8);
      (0.25, 5);
      (4.0, 3);
    ]
  in
  List.iter
    (fun (epsilon, max_degree) ->
      let grid = Cip.capacity_grid ~epsilon ~max_degree in
      let b = Float.of_int max_degree in
      Alcotest.(check bool)
        (Printf.sprintf "ends at B (eps=%.17g B=%d)" epsilon max_degree)
        true
        (List.rev grid |> List.hd = b);
      let rec gaps = function
        | x :: (y :: _ as rest) ->
            Alcotest.(check bool)
              (Printf.sprintf
                 "grid points relatively distinct (eps=%.17g B=%d): %.17g vs %.17g"
                 epsilon max_degree x y)
              true
              (y -. x > 1e-9 *. y);
            gaps rest
        | _ -> ()
      in
      gaps grid)
    pairs

let test_xos_combine () =
  let p = Xos.combine [ P.Item [| 1.0 |]; P.Item [| 2.0 |] ] in
  (match p with
  | P.Xos [ _; _ ] -> ()
  | _ -> Alcotest.fail "expected 2-component XOS");
  (match Xos.combine [ P.Uniform_bundle 1.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "uniform component rejected");
  match Xos.combine [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty combination rejected"

let test_xos_at_least_components () =
  (* XOS price is the max of components, which can over- or under-sell;
     but its price per edge is >= each component's price. *)
  let rand = Random.State.make [| 7 |] in
  for _ = 1 to 100 do
    let h = random_h rand in
    let w1 = Array.init (H.n_items h) (fun _ -> Float.of_int (Random.State.int rand 5)) in
    let w2 = Array.init (H.n_items h) (fun _ -> Float.of_int (Random.State.int rand 5)) in
    let xos = Xos.combine [ P.Item w1; P.Item w2 ] in
    Array.iter
      (fun (e : H.edge) ->
        let px = P.price xos e in
        Alcotest.(check bool) "max dominates" true
          (px >= P.price (P.Item w1) e -. 1e-9
          && px >= P.price (P.Item w2) e -. 1e-9))
      (H.edges h)
  done

(* Lemma instances behave as the theory predicts. *)
let test_lemma2_behavior () =
  let h = LB.lemma2 ~m:64 in
  Alcotest.(check (float 1e-6)) "item pricing extracts H_m"
    (LB.lemma2_optimal ~m:64)
    (P.revenue (Lpip.solve h) h);
  Alcotest.(check bool) "ubp O(1)" true (P.revenue (Ubp.solve h) h <= 1.0 +. 1e-9)

let test_lemma3_behavior () =
  let h = LB.lemma3 ~n:32 in
  Alcotest.(check (float 1e-6)) "ubp extracts everything"
    (LB.lemma3_optimal ~n:32)
    (P.revenue (Ubp.solve h) h);
  (* any item pricing is O(n): check our item algorithms stay below 2n *)
  List.iter
    (fun solve ->
      Alcotest.(check bool) "item pricing O(n)" true
        (P.revenue (solve h) h <= 2.0 *. 32.0))
    [ Uip.solve; Lpip.solve; Layering.solve ]

let test_lemma4_behavior () =
  let h = LB.lemma4 ~levels:3 in
  let opt = LB.lemma4_optimal ~levels:3 in
  List.iter
    (fun solve ->
      let r = P.revenue (solve h) h in
      Alcotest.(check bool) "strictly below OPT" true (r < opt))
    [ Ubp.solve; Uip.solve; Lpip.solve; Layering.solve ]

let test_lemma_sizes () =
  Alcotest.(check int) "lemma2 m" 10 (H.m (LB.lemma2 ~m:10));
  Alcotest.(check int) "lemma4 items" 8 (H.n_items (LB.lemma4 ~levels:3));
  (* lemma3: m = sum of ceil(n/i) *)
  let n = 8 in
  let expected = List.init n (fun i -> (n + i) / (i + 1)) |> List.fold_left ( + ) 0 in
  Alcotest.(check int) "lemma3 m" expected (H.m (LB.lemma3 ~n))

let test_registry () =
  Alcotest.(check int) "six algorithms" 6 (List.length (Algorithms.all ()));
  Alcotest.(check string) "find lpip" "LPIP" (Algorithms.find "LPIP").Algorithms.label;
  match Algorithms.find "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let layer_ids layers = List.map (List.map (fun (e : H.edge) -> e.id)) layers

let test_layering_matches_reference () =
  let rand = Random.State.make [| 16 |] in
  for _ = 1 to 300 do
    let h = tie_heavy_h rand in
    Alcotest.(check (list (list int))) "same layers, same order"
      (layer_ids (Reference_layering.layers h))
      (layer_ids (Layering.layers h))
  done

(* Algorithm 1 peels a cover of what is left: each layer must hold
   every item of the edges still remaining at its turn. *)
let test_layering_layers_cover () =
  let rand = Random.State.make [| 3 |] in
  for _ = 1 to 150 do
    let h = random_h rand in
    let items_of edges =
      List.concat_map (fun (e : H.edge) -> Array.to_list e.items) edges
      |> List.sort_uniq Int.compare
    in
    let rec check remaining = function
      | [] -> Alcotest.(check int) "every edge peeled" 0 (List.length remaining)
      | layer :: rest ->
          Alcotest.(check (list int)) "layer covers the remaining items"
            (items_of remaining) (items_of layer);
          let ids = List.map (fun (e : H.edge) -> e.id) layer in
          check
            (List.filter (fun (e : H.edge) -> not (List.mem e.id ids)) remaining)
            rest
    in
    check
      (Array.to_list (H.edges h) |> List.filter (fun (e : H.edge) -> e.items <> [||]))
      (Layering.layers h)
  done

(* Bit-exact pins of the LP sweeps on one seeded Tiny instance: each
   revenue as its [Int64.bits_of_float] and each price vector as the MD5
   of its prices' bit patterns. Chunk boundaries fix the warm chains and
   the chains fix which optimal vertex each member reports, so a change
   to chunking, warm starting or the merge order that moves a single ulp
   fails here. jobs = 2 puts the chunks on both workers; LPIP's 23
   candidates and CIP's 15 capacities span several chunks each. *)
let sweep_pin_instance =
  lazy
    (let inst =
       Qp_experiments.Workload_instances.skewed
         ~scale:Qp_experiments.Workload_instances.Tiny ~support:60 ~seed:9 ()
     in
     Qp_workloads.Valuations.apply ~rng:(Qp_util.Rng.create 3)
       (Qp_workloads.Valuations.Uniform_val 100.0)
       inst.Qp_experiments.Workload_instances.hypergraph)

let price_bits_md5 ws =
  let b = Buffer.create 4096 in
  List.iter
    (Array.iter (fun x ->
         Buffer.add_string b (Int64.to_string (Int64.bits_of_float x));
         Buffer.add_char b ','))
    ws;
  Digest.to_hex (Digest.string (Buffer.contents b))

let sweep_fingerprint h pricing =
  let ws =
    match pricing with
    | P.Item w -> [ w ]
    | P.Xos ws -> ws
    | P.Uniform_bundle _ | P.Capped_item _ -> Alcotest.fail "not additive"
  in
  (Int64.bits_of_float (P.revenue pricing h), price_bits_md5 ws)

let test_sweep_pins () =
  let h = Lazy.force sweep_pin_instance in
  let lpip_options =
    { Lpip.max_candidates = Some 24; max_pivots = 200_000; jobs = Some 2 }
  in
  let cip_options =
    { Cip.epsilon = 0.25; max_pivots = 200_000; time_budget = None;
      jobs = Some 2 }
  in
  let got =
    [
      ("lpip", sweep_fingerprint h (Lpip.solve ~options:lpip_options h));
      ("cip", sweep_fingerprint h (Cip.solve ~options:cip_options h));
      ("xos", sweep_fingerprint h (Xos.solve ~lpip_options ~cip_options h));
    ]
  in
  let expected =
    [
      ("lpip", (4654041287961538970L, "a153da55d69e2fd4f7c357c93f7dbc68"));
      ("cip", (4657923834047330053L, "20bc239fdfb075f0ded9389729dc6cb3"));
      ("xos", (4657923834047330053L, "7396248a355a1a6d342427a61b5c9216"));
    ]
  in
  List.iter2
    (fun (name, (rev, md5)) (_, (rev', md5')) ->
      Alcotest.(check int64) (name ^ " revenue bits") rev rev';
      Alcotest.(check string) (name ^ " price bits md5") md5 md5')
    expected got


let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "algorithms",
    [
      t "UBP optimal (300 random, brute force)" test_ubp_optimal_property;
      t "UIP optimal (300 random, brute force)" test_uip_optimal_property;
      t "UBP ties" test_ubp_ties;
      t "UBP empty instance" test_ubp_empty;
      t "UIP skips empty edges" test_uip_skips_empty_edges;
      t "UBP ignores empty edges (f(∅)=0)" test_ubp_ignores_empty_edges;
      t "layering: layers are minimal covers" test_layering_layers_structure;
      t "layering: revenue >= best layer" test_layering_extracts_best_layer;
      t "all algorithms valid on random instances" test_lp_algorithms_validity;
      t "LPIP full extraction on single edge" test_lpip_dominates_trivial;
      t "LPIP candidate cap" test_lpip_candidate_cap;
      t "CIP capacity grid" test_cip_grid;
      t "CIP capacity grid dedupes near-B point" test_cip_grid_dedupe;
      t "XOS combine" test_xos_combine;
      t "XOS dominates components" test_xos_at_least_components;
      t "lemma 2 behavior" test_lemma2_behavior;
      t "lemma 3 behavior" test_lemma3_behavior;
      t "lemma 4 behavior" test_lemma4_behavior;
      t "lemma instance sizes" test_lemma_sizes;
      t "algorithm registry" test_registry;
      t "layering: matches the set-based reference (300 random)"
        test_layering_matches_reference;
      t "layering: each layer covers the remaining items" test_layering_layers_cover;
      t "LP sweeps: bit-exact pins on a Tiny instance" test_sweep_pins;
    ] )
