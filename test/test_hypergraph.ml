(* Tests for the hypergraph model and the item membership classes. *)

module H = Qp_core.Hypergraph

let mk specs = H.create ~n_items:6 (Array.of_list specs)

let triangle =
  mk
    [ ("a", [| 0; 1 |], 5.0); ("b", [| 1; 2 |], 3.0); ("c", [| 0; 2 |], 2.0);
      ("empty", [||], 1.0) ]

let test_stats () =
  Alcotest.(check int) "m" 4 (H.m triangle);
  Alcotest.(check int) "n" 6 (H.n_items triangle);
  Alcotest.(check int) "B" 2 (H.max_degree triangle);
  Alcotest.(check int) "k" 2 (H.max_edge_size triangle);
  Alcotest.(check (float 1e-9)) "avg" 1.5 (H.avg_edge_size triangle);
  Alcotest.(check (float 1e-9)) "sum v" 11.0 (H.sum_valuations triangle);
  Alcotest.(check int) "degree of 0" 2 (H.degree triangle 0);
  Alcotest.(check int) "degree of 5" 0 (H.degree triangle 5);
  Alcotest.(check (list int)) "edges of item 1" [ 0; 1 ] (H.edges_of_item triangle 1)

let test_create_validation () =
  (match H.create ~n_items:2 [| ("x", [| 5 |], 1.0) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range item");
  (match H.create ~n_items:2 [| ("x", [| 0 |], -1.0) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative valuation");
  (* duplicate items are deduplicated *)
  let h = H.create ~n_items:3 [| ("x", [| 1; 1; 0 |], 1.0) |] in
  Alcotest.(check (array int)) "dedup + sort" [| 0; 1 |] (H.edge h 0).H.items

let test_with_valuations () =
  let h2 = H.with_valuations triangle [| 1.; 1.; 1.; 1. |] in
  Alcotest.(check (float 1e-9)) "new sum" 4.0 (H.sum_valuations h2);
  Alcotest.(check (float 1e-9)) "old intact" 11.0 (H.sum_valuations triangle);
  (match H.with_valuations triangle [| 1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity check");
  match H.with_valuations triangle [| 1.; 1.; 1.; -1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negativity check"

let test_classes_triangle () =
  let c = H.classes triangle in
  (* items 0,1,2 have distinct patterns; 3,4,5 share the empty pattern *)
  Alcotest.(check int) "4 classes" 4 c.H.n_classes;
  Alcotest.(check bool) "0 and 1 differ" true
    (c.H.class_of_item.(0) <> c.H.class_of_item.(1));
  Alcotest.(check bool) "3 and 4 same" true
    (c.H.class_of_item.(3) = c.H.class_of_item.(4))

let test_classes_collapse () =
  (* two items always together -> one class *)
  let h = mk [ ("a", [| 0; 1; 2 |], 1.0); ("b", [| 0; 1 |], 1.0) ] in
  let c = H.classes h in
  Alcotest.(check bool) "0 and 1 collapse" true
    (c.H.class_of_item.(0) = c.H.class_of_item.(1));
  Alcotest.(check bool) "2 separate" true
    (c.H.class_of_item.(2) <> c.H.class_of_item.(0))

(* Property: classes are exactly the equivalence classes of the
   membership relation, and every edge contains classes wholly. *)
let random_h rand =
  let n = 2 + Random.State.int rand 8 in
  let m = 1 + Random.State.int rand 10 in
  let specs =
    Array.init m (fun i ->
        let size = Random.State.int rand (n + 1) in
        let items =
          Array.init size (fun _ -> Random.State.int rand n)
        in
        (Printf.sprintf "e%d" i, items, Float.of_int (Random.State.int rand 20)))
  in
  H.create ~n_items:n specs

let test_classes_property () =
  let rand = Random.State.make [| 31 |] in
  for _ = 1 to 200 do
    let h = random_h rand in
    let c = H.classes h in
    let pattern j = List.sort compare (H.edges_of_item h j) in
    for a = 0 to H.n_items h - 1 do
      for b = 0 to H.n_items h - 1 do
        Alcotest.(check bool) "same class iff same pattern"
          (pattern a = pattern b)
          (c.H.class_of_item.(a) = c.H.class_of_item.(b))
      done
    done;
    (* edges contain classes wholly *)
    Array.iter
      (fun (e : H.edge) ->
        Array.iter
          (fun j ->
            let cls = c.H.class_of_item.(j) in
            Array.iter
              (fun member ->
                Alcotest.(check bool) "class wholly contained" true
                  (Array.exists (( = ) member) e.H.items))
              c.H.members.(cls))
          e.H.items)
      (H.edges h)
  done

let test_spread_weights_preserves_prices () =
  let rand = Random.State.make [| 32 |] in
  for _ = 1 to 100 do
    let h = random_h rand in
    let c = H.classes h in
    let w_class =
      Array.init c.H.n_classes (fun _ -> Float.of_int (Random.State.int rand 10))
    in
    let w = H.spread_class_weights h w_class in
    Array.iter
      (fun (e : H.edge) ->
        let by_classes =
          Array.fold_left
            (fun acc cls -> acc +. w_class.(cls))
            0.0 c.H.edge_classes.(e.H.id)
        in
        let by_items =
          Array.fold_left (fun acc j -> acc +. w.(j)) 0.0 e.H.items
        in
        Alcotest.(check (float 1e-9)) "price preserved" by_classes by_items)
      (H.edges h)
  done

let test_classes_cached () =
  let h = mk [ ("a", [| 0 |], 1.0) ] in
  let c1 = H.classes h and c2 = H.classes h in
  Alcotest.(check bool) "physically cached" true (c1 == c2)

(* [v < 0.0] is false for NaN: non-finite valuations need their own
   rejection, at creation and at every redraw. *)
let test_non_finite_valuations_rejected () =
  List.iter
    (fun v ->
      (match H.create ~n_items:2 [| ("x", [| 0 |], v) |] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "create accepted %h" v);
      match H.with_valuations triangle [| 1.; 1.; v; 1. |] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "with_valuations accepted %h" v)
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "hypergraph",
    [
      t "statistics" test_stats;
      t "creation validation" test_create_validation;
      t "with_valuations" test_with_valuations;
      t "classes on triangle" test_classes_triangle;
      t "classes collapse" test_classes_collapse;
      t "classes = membership equivalence (property)" test_classes_property;
      t "spread weights preserves prices (property)"
        test_spread_weights_preserves_prices;
      t "classes cached" test_classes_cached;
      t "non-finite valuations rejected" test_non_finite_valuations_rejected;
    ] )
