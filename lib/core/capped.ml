let quantiles n xs =
  let sorted = List.sort_uniq Float.compare xs in
  let arr = Array.of_list sorted in
  let len = Array.length arr in
  if len <= n then sorted
  else List.init n (fun i -> arr.(i * len / n)) @ [ arr.(len - 1) ]

let optimal ?(cap_candidates = 32) ?jobs h =
  Qp_obs.with_span "capped.optimal"
    ~args:(fun () -> [ ("cap_candidates", Qp_obs.Int cap_candidates) ])
  @@ fun () ->
  let edges = Hypergraph.edges h in
  let sized =
    Array.to_list edges
    |> List.filter_map (fun (e : Hypergraph.edge) ->
           let s = Array.length e.items in
           if s = 0 then None else Some (s, e.valuation))
  in
  match sized with
  | [] -> ((0.0, 0.0), 0.0)
  | _ ->
      let slopes =
        List.map (fun (s, v) -> v /. Float.of_int s) sized |> List.sort_uniq Float.compare
      in
      let caps =
        infinity :: quantiles cap_candidates (List.map snd sized)
      in
      (* Each worker sweeps the cap grid for one slope; merging the
         per-slope winners in slope order with strict [>] reproduces the
         sequential slope-then-cap iteration exactly.

         The cap sweep is batched: for a fixed slope, an edge with base
         price w*s <= v_e + tol buys at every cap (paying min(w*s, cap))
         and any other edge buys exactly when cap <= v_e + tol (paying
         cap). With the base prices and the capped-only valuations each
         in ascending order, the per-cap fold over all edges becomes two
         binary searches against prefix sums.

         Both orders come from sorting the edges once, before the
         fan-out: by size and by valuation. Each slope filters them in
         O(m). For w >= 0, fl(w*s) is monotone in s, so filtering the
         size order yields the base prices already ascending, element
         for element what a sort per slope would give. *)
      let presorted cmp =
        let a = Array.of_list sized in
        Array.sort cmp a;
        (Array.map (fun (s, _) -> Float.of_int s) a, Array.map snd a)
      in
      let size_s, size_v = presorted (fun (a, _) (b, _) -> Int.compare a b) in
      let val_s, val_v =
        presorted (fun (_, a) (_, b) -> Float.compare a b)
      in
      let n = Array.length size_s in
      let per_slope =
        Qp_util.Parallel.map ?jobs
          (fun w ->
            let always = Array.make n 0.0 and n_a = ref 0 in
            for i = 0 to n - 1 do
              let p = w *. size_s.(i) in
              if p <= size_v.(i) +. 1e-12 then begin
                always.(!n_a) <- p;
                incr n_a
              end
            done;
            let n_a = !n_a in
            let prefix = Array.make (n_a + 1) 0.0 in
            for i = 0 to n_a - 1 do
              prefix.(i + 1) <- prefix.(i) +. always.(i)
            done;
            let vals = Array.make n 0.0 and n_b = ref 0 in
            for i = 0 to n - 1 do
              let v = val_v.(i) in
              if not (w *. val_s.(i) <= v +. 1e-12) then begin
                vals.(!n_b) <- v;
                incr n_b
              end
            done;
            let n_b = !n_b in
            let revenue_of cap =
              (* first index with always.(i) > cap *)
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
              (* first index with cap <= vals.(i) + 1e-12 — the exact
                 per-edge buying test, kept verbatim so boundary edges
                 land on the same side as the unbatched fold *)
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
      (* An infinite cap is just the uniform item pricing; report it as
         a finite number above every bundle price for a clean record. *)
      let (w, cap), r = !best in
      let max_size =
        List.fold_left (fun acc (s, _) -> max acc s) 1 sized
      in
      let cap = if cap = infinity then w *. Float.of_int max_size else cap in
      ((w, cap), r)

let solve ?cap_candidates ?jobs h =
  let (weight, cap), _ = optimal ?cap_candidates ?jobs h in
  Pricing.Capped_item { weight; cap }
