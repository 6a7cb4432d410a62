(* Hand-written lexer + recursive-descent parser for the workload SQL
   fragment. Kept deliberately simple: one token of lookahead, errors
   carry the offending position. *)

type token =
  | Ident of string
  | Int_lit of int
  | Str_lit of string
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Star
  | Plus
  | Minus
  | Cmp_tok of Expr.cmp
  | Eof

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* --- lexer ----------------------------------------------------------- *)

let lex input =
  let n = String.length input in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  let peek () = if !i < n then Some input.[!i] else None in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '#'
  in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' then (emit Lparen; incr i)
    else if c = ')' then (emit Rparen; incr i)
    else if c = ',' then (emit Comma; incr i)
    else if c = '.' then (emit Dot; incr i)
    else if c = '*' then (emit Star; incr i)
    else if c = '+' then (emit Plus; incr i)
    else if c = '-' then (emit Minus; incr i)
    else if c = '=' then (emit (Cmp_tok Expr.Eq); incr i)
    else if c = '<' then begin
      incr i;
      match peek () with
      | Some '=' -> emit (Cmp_tok Expr.Le); incr i
      | Some '>' -> emit (Cmp_tok Expr.Ne); incr i
      | _ -> emit (Cmp_tok Expr.Lt)
    end
    else if c = '>' then begin
      incr i;
      match peek () with
      | Some '=' -> emit (Cmp_tok Expr.Ge); incr i
      | _ -> emit (Cmp_tok Expr.Gt)
    end
    else if c = '\'' then begin
      incr i;
      let buf = Buffer.create 16 in
      let rec go () =
        if !i >= n then fail "unterminated string literal"
        else if input.[!i] = '\'' then
          if !i + 1 < n && input.[!i + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2;
            go ()
          end
          else incr i
        else begin
          Buffer.add_char buf input.[!i];
          incr i;
          go ()
        end
      in
      go ();
      emit (Str_lit (Buffer.contents buf))
    end
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && ((input.[!i] >= '0' && input.[!i] <= '9') || input.[!i] = '_') do
        incr i
      done;
      let text = String.sub input start (!i - start) in
      let text = String.concat "" (String.split_on_char '_' text) in
      emit (Int_lit (int_of_string text))
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      emit (Ident (String.sub input start (!i - start)))
    end
    else fail "unexpected character %C at offset %d" c !i
  done;
  emit Eof;
  Array.of_list (List.rev !tokens)

(* --- parser ---------------------------------------------------------- *)

type state = { tokens : token array; mutable pos : int }

let peek st = st.tokens.(st.pos)
let advance st = st.pos <- st.pos + 1

let describe = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Int_lit i -> Printf.sprintf "integer %d" i
  | Str_lit s -> Printf.sprintf "string %S" s
  | Lparen -> "'('" | Rparen -> "')'" | Comma -> "','" | Dot -> "'.'"
  | Star -> "'*'" | Plus -> "'+'" | Minus -> "'-'"
  | Cmp_tok _ -> "comparison operator"
  | Eof -> "end of input"

let is_kw st kw =
  match peek st with
  | Ident s -> String.lowercase_ascii s = kw
  | _ -> false

let eat_kw st kw =
  if is_kw st kw then (advance st; true) else false

let expect_kw st kw =
  if not (eat_kw st kw) then
    fail "expected %s, found %s (token %d)" (String.uppercase_ascii kw)
      (describe (peek st)) st.pos

let expect st tok what =
  if peek st = tok then advance st
  else fail "expected %s, found %s (token %d)" what (describe (peek st)) st.pos

let ident st =
  match peek st with
  | Ident s -> advance st; s
  | t -> fail "expected identifier, found %s (token %d)" (describe t) st.pos

let agg_keywords = [ "count"; "sum"; "avg"; "min"; "max" ]

(* Reserved words may not appear as bare column references; catching
   them here turns "select from t" into a pointed error instead of a
   column named "from". *)
let reserved_keywords =
  [ "select"; "from"; "where"; "group"; "by"; "limit"; "and"; "or"; "not";
    "between"; "in"; "like"; "as"; "distinct"; "order"; "having"; "on" ]

let is_agg_call st =
  match (peek st, st.tokens.(st.pos + 1)) with
  | Ident s, Lparen -> List.mem (String.lowercase_ascii s) agg_keywords
  | _ -> false

let rec or_expr st =
  let left = and_expr st in
  if eat_kw st "or" then Expr.Or (left, or_expr st) else left

and and_expr st =
  let left = not_expr st in
  if eat_kw st "and" then Expr.And (left, and_expr st) else left

and not_expr st =
  if eat_kw st "not" then Expr.Not (not_expr st) else predicate st

and predicate st =
  let left = sum_expr st in
  match peek st with
  | Cmp_tok op ->
      advance st;
      Expr.Cmp (op, left, sum_expr st)
  | Ident kw -> (
      match String.lowercase_ascii kw with
      | "between" ->
          advance st;
          let lo = sum_expr st in
          expect_kw st "and";
          Expr.Between (left, lo, sum_expr st)
      | "in" ->
          advance st;
          expect st Lparen "'('";
          let rec values acc =
            let v =
              match peek st with
              | Int_lit i -> advance st; Value.Int i
              | Str_lit s -> advance st; Value.Str s
              | Minus ->
                  advance st;
                  (match peek st with
                  | Int_lit i -> advance st; Value.Int (-i)
                  | t -> fail "expected integer after '-', found %s" (describe t))
              | t -> fail "expected literal in IN list, found %s" (describe t)
            in
            if peek st = Comma then (advance st; values (v :: acc))
            else List.rev (v :: acc)
          in
          let vs = values [] in
          expect st Rparen "')'";
          Expr.In_list (left, vs)
      | "like" ->
          advance st;
          (match peek st with
          | Str_lit pattern -> advance st; Expr.Like (left, pattern)
          | t -> fail "expected pattern string after LIKE, found %s" (describe t))
      | "not" -> (
          advance st;
          match peek st with
          | Ident kw2 when String.lowercase_ascii kw2 = "like" ->
              advance st;
              (match peek st with
              | Str_lit pattern -> advance st; Expr.Not (Expr.Like (left, pattern))
              | t -> fail "expected pattern after NOT LIKE, found %s" (describe t))
          | _ ->
              (* plain expression followed by the NOT of another clause:
                 hand NOT back to the caller by rewinding *)
              st.pos <- st.pos - 1;
              left)
      | _ -> left)
  | _ -> left

and sum_expr st =
  let rec loop acc =
    match peek st with
    | Plus -> advance st; loop (Expr.Arith (Expr.Add, acc, term st))
    | Minus -> advance st; loop (Expr.Arith (Expr.Sub, acc, term st))
    | _ -> acc
  in
  loop (term st)

and term st =
  let rec loop acc =
    match peek st with
    | Star -> advance st; loop (Expr.Arith (Expr.Mul, acc, factor st))
    | _ -> acc
  in
  loop (factor st)

and factor st =
  match peek st with
  | Int_lit i -> advance st; Expr.int i
  | Str_lit s -> advance st; Expr.str s
  | Minus ->
      advance st;
      (match peek st with
      | Int_lit i -> advance st; Expr.int (-i)
      | t -> fail "expected integer after unary '-', found %s" (describe t))
  | Lparen ->
      advance st;
      let e = or_expr st in
      expect st Rparen "')'";
      e
  | Ident name when String.lowercase_ascii name = "null" ->
      advance st;
      Expr.Const Value.Null
  | Ident name when List.mem (String.lowercase_ascii name) reserved_keywords ->
      fail "expected expression, found keyword %s (token %d)"
        (String.uppercase_ascii name) st.pos
  | Ident name ->
      advance st;
      if peek st = Dot then begin
        advance st;
        let column = ident st in
        Expr.col ~table:name column
      end
      else Expr.col name
  | t -> fail "expected expression, found %s (token %d)" (describe t) st.pos

let aggregate st =
  let fn = String.lowercase_ascii (ident st) in
  expect st Lparen "'('";
  let agg =
    if fn = "count" && peek st = Star then begin
      advance st;
      Query.Count_star
    end
    else begin
      let distinct = eat_kw st "distinct" in
      let arg = sum_expr st in
      match (fn, distinct) with
      | "count", true -> Query.Count_distinct arg
      | "count", false -> Query.Count arg
      | "sum", false -> Query.Sum arg
      | "avg", false -> Query.Avg arg
      | "min", false -> Query.Min arg
      | "max", false -> Query.Max arg
      | _, true -> fail "DISTINCT is only supported inside COUNT"
      | _ -> assert false
    end
  in
  expect st Rparen "')'";
  agg

let default_item_name = function
  | Query.Field (e, _) -> Expr.to_sql e
  | Query.Aggregate (fn, _) -> (
      match fn with
      | Query.Count_star -> "count(*)"
      | Query.Count e -> Printf.sprintf "count(%s)" (Expr.to_sql e)
      | Query.Count_distinct e ->
          Printf.sprintf "count(distinct %s)" (Expr.to_sql e)
      | Query.Sum e -> Printf.sprintf "sum(%s)" (Expr.to_sql e)
      | Query.Avg e -> Printf.sprintf "avg(%s)" (Expr.to_sql e)
      | Query.Min e -> Printf.sprintf "min(%s)" (Expr.to_sql e)
      | Query.Max e -> Printf.sprintf "max(%s)" (Expr.to_sql e))

let select_item st =
  let item =
    if is_agg_call st then Query.Aggregate (aggregate st, "")
    else Query.Field (sum_expr st, "")
  in
  let name =
    if eat_kw st "as" then ident st
    else
      match item with
      | Query.Field (e, _) -> Expr.to_sql e
      | Query.Aggregate _ -> default_item_name item
  in
  match item with
  | Query.Field (e, _) -> Query.Field (e, name)
  | Query.Aggregate (fn, _) -> Query.Aggregate (fn, name)

let reserved =
  [ "where"; "group"; "limit"; "from"; "on"; "order"; "having" ]

let from_item st =
  let table = ident st in
  match peek st with
  | Ident alias when not (List.mem (String.lowercase_ascii alias) reserved) ->
      advance st;
      table ^ " " ^ alias
  | _ -> table

let parse_tokens st ~db ~name =
  expect_kw st "select";
  let distinct = eat_kw st "distinct" in
  let star_select = peek st = Star in
  let items =
    if star_select then begin
      advance st;
      []
    end
    else begin
      let rec loop acc =
        let item = select_item st in
        if peek st = Comma then (advance st; loop (item :: acc))
        else List.rev (item :: acc)
      in
      loop []
    end
  in
  expect_kw st "from";
  let rec from_loop acc =
    let f = from_item st in
    if peek st = Comma then (advance st; from_loop (f :: acc))
    else List.rev (f :: acc)
  in
  let from = from_loop [] in
  List.iter
    (fun entry ->
      let table = List.hd (String.split_on_char ' ' entry) in
      if Database.relation_opt db table = None then
        fail "unknown table %S" table)
    from;
  let where = if eat_kw st "where" then Some (or_expr st) else None in
  let group_by =
    if eat_kw st "group" then begin
      expect_kw st "by";
      let rec keys acc =
        let e = sum_expr st in
        if peek st = Comma then (advance st; keys (e :: acc))
        else List.rev (e :: acc)
      in
      keys []
    end
    else []
  in
  let limit =
    if eat_kw st "limit" then
      match peek st with
      | Int_lit k -> advance st; Some k
      | t -> fail "expected integer after LIMIT, found %s" (describe t)
    else None
  in
  (match peek st with
  | Eof -> ()
  | t -> fail "unexpected %s after the query (token %d)" (describe t) st.pos);
  let items =
    if star_select then
      Query.star db (Query.make ~name ~from [ Query.Field (Expr.int 1, "x") ])
    else items
  in
  Query.make ~name ~distinct ?where ~group_by ?limit ~from items

let truncate s n = if String.length s <= n then s else String.sub s 0 n ^ "..."

let parse ?name ~db sql =
  let name = Option.value name ~default:(truncate sql 60) in
  match
    let st = { tokens = lex sql; pos = 0 } in
    let q = parse_tokens st ~db ~name in
    (* Compiling resolves every column and types the aggregates, so a
       parsed query is one the engine can run. *)
    ignore (Eval.prepare db q);
    q
  with
  | q -> Ok q
  | exception Error msg -> Stdlib.Error msg
  | exception Invalid_argument msg -> Stdlib.Error msg

let parse_exn ?name ~db sql =
  match parse ?name ~db sql with
  | Ok q -> q
  | Error msg -> invalid_arg ("Sql.parse: " ^ msg)
