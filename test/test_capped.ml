(* Tests for the capped uniform item pricing extension. *)

module H = Qp_core.Hypergraph
module P = Qp_core.Pricing
module Capped = Qp_core.Capped
module Arbitrage = Qp_market.Arbitrage
module Rng = Qp_util.Rng

let random_h rand =
  let n = 1 + Random.State.int rand 8 in
  let m = 1 + Random.State.int rand 10 in
  H.create ~n_items:n
    (Array.init m (fun i ->
         let size = Random.State.int rand (n + 1) in
         ( Printf.sprintf "e%d" i,
           Array.init size (fun _ -> Random.State.int rand n),
           Float.of_int (1 + Random.State.int rand 30) )))

let test_price_shape () =
  let p = P.Capped_item { weight = 2.0; cap = 5.0 } in
  Alcotest.(check (float 1e-9)) "below cap" 4.0 (P.price_items p [| 0; 1 |]);
  Alcotest.(check (float 1e-9)) "capped" 5.0 (P.price_items p [| 0; 1; 2; 3 |]);
  Alcotest.(check (float 1e-9)) "empty free" 0.0 (P.price_items p [||])

let test_validity () =
  let h = random_h (Random.State.make [| 1 |]) in
  Alcotest.(check bool) "valid" true
    (P.is_valid (P.Capped_item { weight = 1.0; cap = 2.0 }) h);
  Alcotest.(check bool) "negative invalid" false
    (P.is_valid (P.Capped_item { weight = -1.0; cap = 2.0 }) h)

let test_arbitrage_free () =
  let rng = Rng.create 8 in
  for _ = 1 to 30 do
    match
      Arbitrage.check_random ~rng ~n_items:8 ~trials:300
        (P.Capped_item { weight = Rng.float rng 5.0; cap = Rng.float rng 20.0 })
    with
    | None -> ()
    | Some v ->
        Alcotest.failf "violation: %s"
          (Format.asprintf "%a" Arbitrage.pp_violation v)
  done

let test_dominates_uip () =
  let rand = Random.State.make [| 3 |] in
  for _ = 1 to 200 do
    let h = random_h rand in
    let _, capped_revenue = Capped.optimal h in
    let _, uip_revenue = Qp_core.Uip.optimal_weight h in
    Alcotest.(check bool) "capped >= uip" true
      (capped_revenue >= uip_revenue -. 1e-6);
    (* the reported revenue matches the pricing's actual revenue *)
    Alcotest.(check (float 1e-6)) "self-consistent" capped_revenue
      (P.revenue (Capped.solve h) h)
  done

let test_beats_both_parents_sometimes () =
  (* One cheap small bundle and one big bundle: UIP must choose between
     a slope selling both cheaply or only the small one; UBP can't
     separate them either. The cap does strictly better. *)
  let h =
    H.create ~n_items:10
      [| ("small", [| 0 |], 2.0); ("big", Array.init 10 Fun.id, 8.0) |]
  in
  let _, capped = Capped.optimal h in
  let _, uip = Qp_core.Uip.optimal_weight h in
  let _, ubp = Qp_core.Ubp.optimal_price h in
  Alcotest.(check (float 1e-9)) "capped extracts all" 10.0 capped;
  Alcotest.(check bool) "beats UIP" true (capped > uip +. 1e-9);
  Alcotest.(check bool) "beats UBP" true (capped > ubp +. 1e-9)

let test_empty_instance () =
  let ((w, cap), r) = Capped.optimal (H.create ~n_items:3 [| ("e", [||], 5.0) |]) in
  Alcotest.(check (float 1e-9)) "w" 0.0 w;
  Alcotest.(check (float 1e-9)) "cap" 0.0 cap;
  Alcotest.(check (float 1e-9)) "revenue" 0.0 r

let test_xos_rejects_capped () =
  match Qp_core.Xos.combine [ P.Capped_item { weight = 1.0; cap = 1.0 } ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capped is not additive"

(* [Capped.optimal] as this library shipped it before the presorted
   filter, kept as a test-only reference: every slope builds and sorts
   its own lists of base prices and capped-only valuations. The slopes
   are swept in order here rather than on the worker pool, which the
   shipped code already merged bit-identically. *)
let reference_optimal ?(cap_candidates = 32) h =
  let quantiles n xs =
    let sorted = List.sort_uniq compare xs in
    let arr = Array.of_list sorted in
    let len = Array.length arr in
    if len <= n then sorted
    else List.init n (fun i -> arr.(i * len / n)) @ [ arr.(len - 1) ]
  in
  let sized =
    Array.to_list (H.edges h)
    |> List.filter_map (fun (e : H.edge) ->
           let s = Array.length e.items in
           if s = 0 then None else Some (s, e.valuation))
  in
  match sized with
  | [] -> ((0.0, 0.0), 0.0)
  | _ ->
      let slopes =
        List.map (fun (s, v) -> v /. Float.of_int s) sized |> List.sort_uniq compare
      in
      let caps = infinity :: quantiles cap_candidates (List.map snd sized) in
      let per_slope =
        Array.map
          (fun w ->
            let always = ref [] and capped_only = ref [] in
            List.iter
              (fun (s, v) ->
                let p = w *. Float.of_int s in
                if p <= v +. 1e-12 then always := p :: !always
                else capped_only := v :: !capped_only)
              sized;
            let always = Array.of_list !always in
            Array.sort Float.compare always;
            let n_a = Array.length always in
            let prefix = Array.make (n_a + 1) 0.0 in
            for i = 0 to n_a - 1 do
              prefix.(i + 1) <- prefix.(i) +. always.(i)
            done;
            let vals = Array.of_list !capped_only in
            Array.sort Float.compare vals;
            let n_b = Array.length vals in
            let revenue_of cap =
              let lo = ref 0 and hi = ref n_a in
              while !lo < !hi do
                let mid = (!lo + !hi) / 2 in
                if always.(mid) <= cap then lo := mid + 1 else hi := mid
              done;
              let below = !lo in
              let acc = prefix.(below) in
              let acc =
                if n_a > below then acc +. (cap *. Float.of_int (n_a - below))
                else acc
              in
              let lo = ref 0 and hi = ref n_b in
              while !lo < !hi do
                let mid = (!lo + !hi) / 2 in
                if cap <= vals.(mid) +. 1e-12 then hi := mid else lo := mid + 1
              done;
              let buyers = n_b - !lo in
              if buyers > 0 then acc +. (cap *. Float.of_int buyers) else acc
            in
            let best = ref ((w, infinity), 0.0) in
            List.iter
              (fun cap ->
                let r = revenue_of cap in
                let _, br = !best in
                if r > br then best := ((w, cap), r))
              caps;
            !best)
          (Array.of_list slopes)
      in
      let best = ref ((0.0, 0.0), 0.0) in
      Array.iter
        (fun (pair, r) ->
          let _, br = !best in
          if r > br then best := (pair, r))
        per_slope;
      let (w, cap), r = !best in
      let max_size = List.fold_left (fun acc (s, _) -> max acc s) 1 sized in
      let cap = if cap = infinity then w *. Float.of_int max_size else cap in
      ((w, cap), r)

let test_matches_reference () =
  let rand = Random.State.make [| 16 |] in
  let bits ((w, cap), r) = List.map Int64.bits_of_float [ w; cap; r ] in
  for _ = 1 to 300 do
    let h = Test_algorithms.tie_heavy_h rand in
    let cap_candidates = 1 + Random.State.int rand 40 in
    let expected = bits (reference_optimal ~cap_candidates h) in
    List.iter
      (fun jobs ->
        Alcotest.(check (list int64))
          (Printf.sprintf "bit-identical at jobs=%d" jobs)
          expected
          (bits (Capped.optimal ~cap_candidates ~jobs h)))
      [ 1; 2 ]
  done

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "capped",
    [
      t "price shape" test_price_shape;
      t "validity" test_validity;
      t "arbitrage-free" test_arbitrage_free;
      t "dominates UIP (200 random)" test_dominates_uip;
      t "beats both parents on the motivating instance"
        test_beats_both_parents_sometimes;
      t "empty instance" test_empty_instance;
      t "xos rejects capped components" test_xos_rejects_capped;
      t "matches the per-slope-sort reference (300 random)"
        test_matches_reference;
    ] )
