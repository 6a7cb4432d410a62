type var = int
type constr = int

type sense = Le | Ge | Eq

type row = { terms : (float * var) list; bound : float; sense : sense }

type t = {
  minimize : bool;
  mutable objs : float list; (* reversed *)
  mutable nvars : int;
  mutable rows : row list; (* reversed *)
  mutable nrows : int;
}

type solution = {
  objective : float;
  primal : float array;
  row_dual : float array; (* indexed by user constraint *)
}

type error =
  | Infeasible
  | Unbounded
  | Budget_exhausted of Simplex.diagnostics
  | Numerical_error of Simplex.diagnostics

let error_tag = function
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Budget_exhausted _ -> "budget_exhausted"
  | Numerical_error _ -> "numerical_error"

let describe_error = function
  | Infeasible -> "LP infeasible"
  | Unbounded -> "LP unbounded"
  | Budget_exhausted d ->
      Printf.sprintf "simplex budget exhausted after %d pivots (%s)" d.Simplex.pivots
        d.Simplex.detail
  | Numerical_error d ->
      Printf.sprintf "simplex numerical error after %d pivots (%s)" d.Simplex.pivots
        d.Simplex.detail

let create ?(minimize = false) () =
  { minimize; objs = []; nvars = 0; rows = []; nrows = 0 }

let add_var p ~obj () =
  p.objs <- obj :: p.objs;
  p.nvars <- p.nvars + 1;
  p.nvars - 1

let var_count p = p.nvars
let constr_count p = p.nrows

let add_row p sense terms bound =
  p.rows <- { terms; bound; sense } :: p.rows;
  p.nrows <- p.nrows + 1;
  p.nrows - 1

let add_le p terms b = add_row p Le terms b
let add_ge p terms b = add_row p Ge terms b
let add_eq p terms b = add_row p Eq terms b

(* A row's terms as a sparse row over variable indices: a repeated
   variable's coefficients are summed in list order from 0.0 (a stable
   sort keeps that order within each run), and a sum that comes out an
   exact zero is dropped. *)
let sparse_of_terms nvars terms =
  let t = Array.of_list terms in
  Array.stable_sort (fun (_, a) (_, b) -> Int.compare a b) t;
  let n = Array.length t in
  let idx = Array.make n 0 and v = Array.make n 0.0 in
  let k = ref 0 and i = ref 0 in
  while !i < n do
    let j = snd t.(!i) in
    assert (j >= 0 && j < nvars);
    let s = ref 0.0 in
    while !i < n && snd t.(!i) = j do
      s := !s +. fst t.(!i);
      incr i
    done;
    if !s <> 0.0 then begin
      idx.(!k) <- j;
      v.(!k) <- !s;
      incr k
    end
  done;
  if !k = n then { Sparse.idx; v }
  else { Sparse.idx = Array.sub idx 0 !k; v = Array.sub v 0 !k }

(* The same row times -1, sharing the index array. *)
let negated (a : Sparse.col) =
  let v = Array.copy a.v in
  for k = 0 to Array.length v - 1 do v.(k) <- -.v.(k) done;
  { a with v }

(* Expansion into <= form. [origin.(k)] records which user constraint
   produced simplex row [k] and with which dual sign; note that for
   every generated row, rhs = dual_sign * user_bound, which is what lets
   [Batch.resolve] retarget bounds without re-expanding. *)
let expand p =
  let nvars = p.nvars in
  let sign = if p.minimize then -1.0 else 1.0 in
  let c = Array.make nvars 0.0 in
  List.iteri (fun i obj -> c.(nvars - 1 - i) <- sign *. obj) p.objs;
  let user_rows = Array.of_list (List.rev p.rows) in
  let sim_rows = ref [] and origin = ref [] in
  Array.iteri
    (fun i { terms; bound; sense } ->
      let a = sparse_of_terms nvars terms in
      let push row b sgn =
        sim_rows := (row, b) :: !sim_rows;
        origin := (i, sgn) :: !origin
      in
      match sense with
      | Le -> push a bound 1.0
      | Ge -> push (negated a) (-.bound) (-1.0)
      | Eq ->
          push a bound 1.0;
          push (negated a) (-.bound) (-1.0))
    user_rows;
  let rows = Array.of_list (List.rev !sim_rows) in
  let origin = Array.of_list (List.rev !origin) in
  (sign, c, rows, origin, Array.length user_rows)

let solution_of_optimal ~sign ~origin ~nuser
    ({ objective; primal; dual } : Simplex.solution) =
  let row_dual = Array.make nuser 0.0 in
  Array.iteri
    (fun k (i, sgn) -> row_dual.(i) <- row_dual.(i) +. (sgn *. sign *. dual.(k)))
    origin;
  { objective = sign *. objective; primal; row_dual }

module Batch = struct
  type problem = t

  type t = {
    sign : float;
    nvars : int;
    nuser : int;
    origin : (int * float) array;
    fam : Simplex.family;
    (* the member's objective and rhs in simplex form, rewritten in
       place by each resolve (the family copies them) *)
    c : float array;
    rhs : float array;
  }

  let prepare ?max_pivots (p : problem) =
    let sign, c, rows, origin, nuser = expand p in
    {
      sign;
      nvars = p.nvars;
      nuser;
      origin;
      fam = Simplex.prepare ?max_pivots ~c ~rows ();
      c;
      rhs = Array.map snd rows;
    }

  let resolve ?obj ?bounds bt =
    Qp_obs.with_span "lp.resolve"
      ~args:(fun () ->
        [ ("vars", Qp_obs.Int bt.nvars); ("constraints", Qp_obs.Int bt.nuser) ])
    @@ fun () ->
    let c =
      Option.map
        (fun o ->
          assert (Array.length o = bt.nvars);
          for j = 0 to bt.nvars - 1 do bt.c.(j) <- bt.sign *. o.(j) done;
          bt.c)
        obj
    in
    let rhs =
      Option.map
        (fun bounds ->
          assert (Array.length bounds = bt.nuser);
          Array.iteri (fun k (i, sgn) -> bt.rhs.(k) <- sgn *. bounds.(i)) bt.origin;
          bt.rhs)
        bounds
    in
    match Simplex.resolve ?c ?rhs bt.fam with
    | Simplex.Infeasible -> Error Infeasible
    | Simplex.Unbounded -> Error Unbounded
    | Simplex.Budget_exhausted d -> Error (Budget_exhausted d)
    | Simplex.Numerical_error d -> Error (Numerical_error d)
    | Simplex.Optimal sol ->
        Ok (solution_of_optimal ~sign:bt.sign ~origin:bt.origin ~nuser:bt.nuser sol)
end

let solve ?max_pivots p = Batch.resolve (Batch.prepare ?max_pivots p)

let objective_value s = s.objective
let value s v = s.primal.(v)
let dual s cid = s.row_dual.(cid)
let var_index (v : var) = v
