(* Each relation is stored with its columnar image, built once here;
   [with_relation] rebuilds only the replaced relation's image, so
   every other image stays physically shared with the source database
   (and with every domain reading it). *)
type t = {
  order : string list;
  by_name : (string, Relation.t * Col_table.t) Hashtbl.t;
}

let key name = String.lowercase_ascii name

let make relations =
  let by_name = Hashtbl.create 16 in
  let order =
    List.map
      (fun r ->
        let name = Schema.name (Relation.schema r) in
        if Hashtbl.mem by_name (key name) then
          invalid_arg (Printf.sprintf "Database.make: duplicate relation %s" name);
        Hashtbl.replace by_name (key name) (r, Col_table.of_relation r);
        name)
      relations
  in
  { order; by_name }

let relation_opt t name = Option.map fst (Hashtbl.find_opt t.by_name (key name))
let relation t name = fst (Hashtbl.find t.by_name (key name))
let columns t name = snd (Hashtbl.find t.by_name (key name))

let relations t = List.map (fun n -> relation t n) t.order
let names t = t.order

let total_rows t =
  List.fold_left (fun acc r -> acc + Relation.cardinality r) 0 (relations t)

let with_relation t r =
  let name = Schema.name (Relation.schema r) in
  if not (Hashtbl.mem t.by_name (key name)) then
    invalid_arg (Printf.sprintf "Database.with_relation: unknown relation %s" name);
  let by_name = Hashtbl.copy t.by_name in
  Hashtbl.replace by_name (key name) (r, Col_table.of_relation r);
  { t with by_name }
