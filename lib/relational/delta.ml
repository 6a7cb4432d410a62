type t =
  | Cell_change of { relation : string; row : int; col : int; value : Value.t }
  | Row_drop of { relation : string; row : int }

let relation = function
  | Cell_change { relation; _ } | Row_drop { relation; _ } -> relation

let apply db = function
  | Cell_change { relation; row; col; value } ->
      let r = Database.relation db relation in
      let tup = Array.copy (Relation.tuple r row) in
      tup.(col) <- value;
      Database.with_relation db (Relation.replace_tuple r row tup)
  | Row_drop { relation; row } ->
      let r = Database.relation db relation in
      Database.with_relation db (Relation.drop_tuple r row)

let is_noop db = function
  | Cell_change { relation; row; col; value } ->
      let r = Database.relation db relation in
      Value.equal (Relation.tuple r row).(col) value
  | Row_drop _ -> false

let pp fmt = function
  | Cell_change { relation; row; col; value } ->
      Format.fprintf fmt "%s[%d].%d <- %a" relation row col Value.pp value
  | Row_drop { relation; row } -> Format.fprintf fmt "%s[%d] dropped" relation row
