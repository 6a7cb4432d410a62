type col_ref = { table : string option; column : string }

type cmp = Eq | Ne | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul

type t =
  | Col of col_ref
  | Const of Value.t
  | Arith of arith * t * t
  | Cmp of cmp * t * t
  | Between of t * t * t
  | In_list of t * Value.t list
  | Like of t * string
  | And of t * t
  | Or of t * t
  | Not of t

let col ?table column = Col { table; column }
let int i = Const (Value.Int i)
let str s = Const (Value.Str s)
let eq a b = Cmp (Eq, a, b)

let conj = function
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun acc x -> And (acc, x)) e rest)

let rec columns = function
  | Col c -> [ c ]
  | Const _ -> []
  | Arith (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      columns a @ columns b
  | Between (a, b, c) -> columns a @ columns b @ columns c
  | In_list (a, _) | Like (a, _) | Not a -> columns a

let cmp_sql = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let sql_value = function
  | Value.Null -> "NULL"
  | Value.Int i -> string_of_int i
  | Value.Ratio (p, q) -> Printf.sprintf "(%d/%d)" p q
  | Value.Str s -> "'" ^ s ^ "'"

let arith_sql = function Add -> "+" | Sub -> "-" | Mul -> "*"

let rec to_sql = function
  | Col { table = None; column } -> column
  | Col { table = Some t; column } -> t ^ "." ^ column
  | Const v -> sql_value v
  | Arith (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (to_sql a) (arith_sql op) (to_sql b)
  | Cmp (op, a, b) -> Printf.sprintf "%s %s %s" (to_sql a) (cmp_sql op) (to_sql b)
  | Between (e, lo, hi) ->
      Printf.sprintf "%s BETWEEN %s AND %s" (to_sql e) (to_sql lo) (to_sql hi)
  | In_list (e, vs) ->
      Printf.sprintf "%s IN (%s)" (to_sql e)
        (String.concat ", " (List.map sql_value vs))
  | Like (e, pat) -> Printf.sprintf "%s LIKE '%s'" (to_sql e) pat
  | And (a, b) -> Printf.sprintf "(%s AND %s)" (to_sql a) (to_sql b)
  | Or (a, b) -> Printf.sprintf "(%s OR %s)" (to_sql a) (to_sql b)
  | Not a -> Printf.sprintf "NOT (%s)" (to_sql a)

type env = Relation.tuple array

type compiled = { eval : env -> Value.t; tables : int list }

let is_true = function
  | Value.Int 0 | Value.Null -> false
  | Value.Int _ | Value.Ratio _ | Value.Str _ -> true

let of_bool b = if b then Value.Int 1 else Value.Int 0

let resolve from { table; column } =
  let norm = String.lowercase_ascii in
  let matches_table i =
    match table with
    | None -> true
    | Some t ->
        let alias, schema = from.(i) in
        String.equal (norm t) (norm alias)
        || String.equal (norm t) (norm (Schema.name schema))
  in
  let hits = ref [] in
  Array.iteri
    (fun i (_, schema) ->
      if matches_table i then
        match Schema.index_of schema column with
        | j -> hits := (i, j) :: !hits
        | exception Not_found -> ())
    from;
  match !hits with
  | [ hit ] -> hit
  | [] ->
      invalid_arg
        (Printf.sprintf "Expr.compile: unresolved column %s"
           (to_sql (Col { table; column })))
  | _ :: _ :: _ ->
      invalid_arg
        (Printf.sprintf "Expr.compile: ambiguous column %s"
           (to_sql (Col { table; column })))

let rec compile from expr =
  match expr with
  | Col cref ->
      let ti, ci = resolve from cref in
      { eval = (fun env -> env.(ti).(ci)); tables = [ ti ] }
  | Const v -> { eval = (fun _ -> v); tables = [] }
  | Arith (op, a, b) ->
      let ca = compile from a and cb = compile from b in
      let f =
        match op with
        | Add -> Stdlib.( + )
        | Sub -> Stdlib.( - )
        | Mul -> Stdlib.( * )
      in
      combine2 ca cb (fun va vb ->
          match (va, vb) with
          | Value.Int x, Value.Int y -> Value.Int (f x y)
          | _ -> Value.Null)
  | Cmp (op, a, b) ->
      let ca = compile from a and cb = compile from b in
      let test =
        match op with
        | Eq -> fun c -> c = 0
        | Ne -> fun c -> c <> 0
        | Lt -> fun c -> c < 0
        | Le -> fun c -> c <= 0
        | Gt -> fun c -> c > 0
        | Ge -> fun c -> c >= 0
      in
      combine2 ca cb (fun va vb ->
          match (va, vb) with
          | Value.Null, _ | _, Value.Null -> of_bool false
          | _ -> of_bool (test (Value.compare va vb)))
  | Between (e, lo, hi) ->
      let ce = compile from e and clo = compile from lo and chi = compile from hi in
      {
        eval =
          (fun env ->
            match (ce.eval env, clo.eval env, chi.eval env) with
            | Value.Null, _, _ | _, Value.Null, _ | _, _, Value.Null ->
                of_bool false
            | v, l, h ->
                of_bool (Value.compare l v <= 0 && Value.compare v h <= 0));
        tables = merge_tables [ ce.tables; clo.tables; chi.tables ];
      }
  | In_list (e, vs) ->
      let ce = compile from e in
      {
        eval =
          (fun env ->
            match ce.eval env with
            | Value.Null -> of_bool false
            | v -> of_bool (List.exists (Value.equal v) vs));
        tables = ce.tables;
      }
  | Like (e, pattern) ->
      let ce = compile from e in
      {
        eval =
          (fun env ->
            match ce.eval env with
            | Value.Str s -> of_bool (Like.matches ~pattern s)
            | Value.Null | Value.Int _ | Value.Ratio _ -> of_bool false);
        tables = ce.tables;
      }
  | And (a, b) ->
      let ca = compile from a and cb = compile from b in
      {
        eval = (fun env -> of_bool (is_true (ca.eval env) && is_true (cb.eval env)));
        tables = merge_tables [ ca.tables; cb.tables ];
      }
  | Or (a, b) ->
      let ca = compile from a and cb = compile from b in
      {
        eval = (fun env -> of_bool (is_true (ca.eval env) || is_true (cb.eval env)));
        tables = merge_tables [ ca.tables; cb.tables ];
      }
  | Not a ->
      let ca = compile from a in
      { eval = (fun env -> of_bool (not (is_true (ca.eval env)))); tables = ca.tables }

and combine2 ca cb f =
  {
    eval = (fun env -> f (ca.eval env) (cb.eval env));
    tables = merge_tables [ ca.tables; cb.tables ];
  }

and merge_tables lists = List.sort_uniq Int.compare (List.concat lists)

(* Defined last: these shadow the boolean operators, which the
   implementations above rely on. *)
let ( && ) a b = And (a, b)
let ( || ) a b = Or (a, b)
let ( + ) a b = Arith (Add, a, b)
let ( - ) a b = Arith (Sub, a, b)
let ( * ) a b = Arith (Mul, a, b)
