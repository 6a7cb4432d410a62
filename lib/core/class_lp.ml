module Lp = Qp_lp.Lp

(* The no-collapse variant views every item as its own class; both
   variants share the solving code below. *)
let identity_classes h =
  let n = Hypergraph.n_items h in
  let edge_lists = Array.make n [] in
  Array.iter
    (fun (e : Hypergraph.edge) ->
      Array.iter (fun j -> edge_lists.(j) <- e.id :: edge_lists.(j)) e.items)
    (Hypergraph.edges h);
  let class_edges =
    Array.map (fun l -> Array.of_list (List.rev l)) edge_lists
  in
  let edge_classes =
    Array.map (fun (e : Hypergraph.edge) -> Array.copy e.items) (Hypergraph.edges h)
  in
  (n, class_edges, edge_classes)

let solve_must_sell ?(max_pivots = 200_000) ?(collapse = true) h ~edge_ids =
  Qp_obs.with_span "class_lp.must_sell"
    ~args:(fun () ->
      [
        ("must_sell", Qp_obs.Int (List.length edge_ids));
        ("collapse", Qp_obs.Bool collapse);
      ])
  @@ fun () ->
  let n_classes, class_edges, edge_classes, members_first =
    if collapse then
      let c = Hypergraph.classes h in
      ( c.Hypergraph.n_classes,
        c.Hypergraph.class_edges,
        c.Hypergraph.edge_classes,
        `Collapsed )
    else
      let n, ce, ec = identity_classes h in
      (n, ce, ec, `Identity)
  in
  let in_s = Array.make (Hypergraph.m h) false in
  List.iter (fun e -> in_s.(e) <- true) edge_ids;
  (* Only classes intersecting S carry weight; others stay at 0. *)
  let class_ids =
    Array.to_list
      (Array.init n_classes (fun c ->
           if Array.exists (fun e -> in_s.(e)) class_edges.(c) then Some c
           else None))
    |> List.filter_map Fun.id
  in
  let p = Lp.create () in
  let var_of_class = Hashtbl.create (List.length class_ids) in
  List.iter
    (fun c ->
      let s_degree =
        Array.fold_left
          (fun acc e -> if in_s.(e) then acc + 1 else acc)
          0 class_edges.(c)
      in
      let v = Lp.add_var p ~obj:(Float.of_int s_degree) () in
      Hashtbl.replace var_of_class c v)
    class_ids;
  List.iter
    (fun e ->
      let terms =
        Array.to_list edge_classes.(e)
        |> List.filter_map (fun c ->
               Option.map (fun v -> (1.0, v)) (Hashtbl.find_opt var_of_class c))
      in
      ignore (Lp.add_le p terms (Hypergraph.edge h e).Hypergraph.valuation))
    edge_ids;
  Qp_obs.annotate (fun () ->
      [
        ("active_classes", Qp_obs.Int (List.length class_ids));
        ("lp_vars", Qp_obs.Int (Lp.var_count p));
        ("lp_rows", Qp_obs.Int (Lp.constr_count p));
      ]);
  match Lp.solve ~max_pivots p with
  | Ok sol ->
      let w_class = Array.make n_classes 0.0 in
      let rounded = ref 0 in
      Hashtbl.iter
        (fun c v ->
          let raw = Lp.value sol v in
          if raw < 0.0 then incr rounded;
          w_class.(c) <- Float.max 0.0 raw)
        var_of_class;
      Qp_obs.counter "class_lp.rounded_weights" !rounded;
      (match members_first with
      | `Collapsed -> Ok (Hypergraph.spread_class_weights h w_class)
      | `Identity -> Ok w_class)
  | Error e -> Error e

(* --- warm-started must-sell family ------------------------------------- *)

(* One shared matrix for every must-sell set S over the same hypergraph:
   all classes as variables, all edge rows, with row e's bound toggling
   between v_e (e in S) and a relaxation wide enough to never bind
   (e outside S). The per-candidate optimum is preserved exactly:

   - every class appearing in an active row intersects S (c lists e iff
     e lists c), so restricting a family solution to S-intersecting
     classes is feasible for the small per-candidate LP;
   - conversely any per-candidate solution extends by zeros, and each
     relaxed row's left side is at most |classes(e)| * v_max, below the
     relaxation;
   - classes not intersecting S carry zero objective, so their values
     are junk the extraction below discards.

   The relaxation stays within a degree factor of v_max on purpose: a
   big-M rhs would inflate the scale-relative feasibility/residual
   tolerances (Tolerance.make folds in max |b|) and loosen the solve for
   every member. *)
type family = {
  fam_h : Hypergraph.t;
  fam_m : int;
  fam_n_classes : int;
  fam_class_edges : int array array;
  fam_vars : Lp.var array;
  fam_valuations : float array;
  fam_relax : float array;
  fam_batch : Lp.Batch.t;
  fam_bounds : float array; (* the member's bounds, rewritten by each solve *)
}

let prepare_family ?(max_pivots = 200_000) h =
  let classes = Hypergraph.classes h in
  let n_classes = classes.Hypergraph.n_classes in
  let class_edges = classes.Hypergraph.class_edges in
  let edge_classes = classes.Hypergraph.edge_classes in
  let m = Hypergraph.m h in
  let valuations =
    Array.map
      (fun (e : Hypergraph.edge) -> e.valuation)
      (Hypergraph.edges h)
  in
  let vmax = Array.fold_left Float.max 0.0 valuations in
  let relax =
    Array.init m (fun e ->
        ((Float.of_int (Array.length edge_classes.(e)) +. 1.0) *. vmax) +. 1.0)
  in
  (* Objectives and bounds here only pin the family's tolerance scale
     (full degrees, relaxed rhs); every resolve overrides both. *)
  let p = Lp.create () in
  let vars =
    Array.init n_classes (fun c ->
        Lp.add_var p ~obj:(Float.of_int (Array.length class_edges.(c))) ())
  in
  for e = 0 to m - 1 do
    let terms =
      Array.to_list edge_classes.(e) |> List.map (fun c -> (1.0, vars.(c)))
    in
    ignore (Lp.add_le p terms relax.(e))
  done;
  {
    fam_h = h;
    fam_m = m;
    fam_n_classes = n_classes;
    fam_class_edges = class_edges;
    fam_vars = vars;
    fam_valuations = valuations;
    fam_relax = relax;
    fam_batch = Lp.Batch.prepare ~max_pivots p;
    fam_bounds = Array.make m 0.0;
  }

let family_must_sell fam ~edge_ids =
  Qp_obs.with_span "class_lp.must_sell"
    ~args:(fun () ->
      [
        ("must_sell", Qp_obs.Int (List.length edge_ids));
        ("collapse", Qp_obs.Bool true);
        ("warm", Qp_obs.Bool true);
      ])
  @@ fun () ->
  let in_s = Array.make fam.fam_m false in
  List.iter (fun e -> in_s.(e) <- true) edge_ids;
  let obj = Array.make fam.fam_n_classes 0.0 in
  let active = ref 0 in
  for c = 0 to fam.fam_n_classes - 1 do
    let s_degree =
      Array.fold_left
        (fun acc e -> if in_s.(e) then acc + 1 else acc)
        0 fam.fam_class_edges.(c)
    in
    if s_degree > 0 then begin
      incr active;
      obj.(c) <- Float.of_int s_degree
    end
  done;
  let bounds = fam.fam_bounds in
  for e = 0 to fam.fam_m - 1 do
    bounds.(e) <- (if in_s.(e) then fam.fam_valuations.(e) else fam.fam_relax.(e))
  done;
  Qp_obs.annotate (fun () ->
      [ ("active_classes", Qp_obs.Int !active) ]);
  match Lp.Batch.resolve ~obj ~bounds fam.fam_batch with
  | Error e -> Error e
  | Ok sol ->
      let w_class = Array.make fam.fam_n_classes 0.0 in
      let rounded = ref 0 in
      for c = 0 to fam.fam_n_classes - 1 do
        if obj.(c) > 0.0 then begin
          let raw = Lp.value sol fam.fam_vars.(c) in
          if raw < 0.0 then incr rounded;
          w_class.(c) <- Float.max 0.0 raw
        end
      done;
      Qp_obs.counter "class_lp.rounded_weights" !rounded;
      Ok (Hypergraph.spread_class_weights fam.fam_h w_class)
