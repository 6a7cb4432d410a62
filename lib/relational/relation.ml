type tuple = Value.t array

type t = { schema : Schema.t; tuples : tuple array }

let check_tuple schema tup =
  if Array.length tup <> Schema.arity schema then
    invalid_arg
      (Printf.sprintf "Relation: tuple arity %d, schema %s has arity %d"
         (Array.length tup) (Schema.name schema) (Schema.arity schema));
  Array.iteri
    (fun i v ->
      match (v, Schema.attr_type schema i) with
      | Value.Null, _ -> ()
      | Value.Int _, Schema.T_int -> ()
      | Value.Str _, Schema.T_string -> ()
      | (Value.Int _ | Value.Str _ | Value.Ratio _), _ ->
          invalid_arg
            (Printf.sprintf "Relation: type mismatch at %s.%s"
               (Schema.name schema)
               (Schema.attr_name schema i)))
    tup

let make schema tuples =
  let tuples = Array.of_list tuples in
  Array.iter (check_tuple schema) tuples;
  { schema; tuples }

let schema t = t.schema
let cardinality t = Array.length t.tuples
let tuple t i = t.tuples.(i)
let tuples t = t.tuples
let get t row attr = t.tuples.(row).(Schema.index_of t.schema attr)

let replace_tuple t i tup =
  check_tuple t.schema tup;
  let tuples = Array.copy t.tuples in
  tuples.(i) <- tup;
  { t with tuples }

let drop_tuple t i =
  let n = Array.length t.tuples in
  assert (i >= 0 && i < n);
  let tuples =
    Array.init (n - 1) (fun j -> if j < i then t.tuples.(j) else t.tuples.(j + 1))
  in
  { t with tuples }
