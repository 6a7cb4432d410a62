module Database = Qp_relational.Database
module Relation = Qp_relational.Relation
module Schema = Qp_relational.Schema
module Query = Qp_relational.Query
module Expr = Qp_relational.Expr
module Value = Qp_relational.Value
module Rng = Qp_util.Rng

(* A window [lo, hi] on an integer column covering ~selectivity of the
   rows, computed from the column's order statistics so the output size
   is the same for every query regardless of the value distribution. *)
let window rng rel col selectivity =
  let values =
    Array.to_list (Relation.tuples rel)
    |> List.filter_map (fun tup -> Value.as_int tup.(col))
  in
  let sorted = Array.of_list (List.sort Int.compare values) in
  let n = Array.length sorted in
  if n = 0 then None
  else
    let width = max 1 (int_of_float (selectivity *. Float.of_int n)) in
    if width >= n then Some (sorted.(0), sorted.(n - 1))
    else
      let start = Rng.int rng (n - width) in
      Some (sorted.(start), sorted.(start + width - 1))

let eligible_relations db =
  List.filter_map
    (fun rel ->
      let schema = Relation.schema rel in
      let int_cols =
        List.filteri
          (fun i _ -> Schema.attr_type schema i = Schema.T_int)
          (List.init (Schema.arity schema) (fun i -> i))
      in
      if int_cols = [] || Relation.cardinality rel = 0 then None
      else Some (rel, Array.of_list int_cols))
    (Database.relations db)

let workload ~rng ?(selectivity = 0.4) ?(m = 1000) db =
  let eligible = Array.of_list (eligible_relations db) in
  if Array.length eligible = 0 then
    invalid_arg "Uniform_workload.workload: no relation with an integer column";
  List.init m (fun qi ->
      let rel, int_cols = Rng.pick rng eligible in
      let schema = Relation.schema rel in
      let col = int_cols.(Rng.int rng (Array.length int_cols)) in
      let lo, hi =
        match window rng rel col selectivity with
        | Some w -> w
        | None -> (0, 0)
      in
      let arity = Schema.arity schema in
      let n_proj = 1 + Rng.int rng arity in
      let proj = Rng.sample_without_replacement rng n_proj arity in
      Query.make
        ~name:(Printf.sprintf "U%d" (qi + 1))
        ~from:[ Schema.name schema ]
        ~where:
          (Expr.Between
             (Expr.col (Schema.attr_name schema col), Expr.int lo, Expr.int hi))
        (List.map
           (fun ci -> Query.Field (Expr.col (Schema.attr_name schema ci),
                                   Schema.attr_name schema ci))
           proj))
