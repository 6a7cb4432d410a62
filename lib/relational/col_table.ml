(* Columnar mirror of a relation: one typed array per attribute.

   Strings are dictionary-encoded with the dictionary sorted by
   String.compare, so code order equals string order and every string
   comparison kernel reduces to an integer range test on the codes.
   NULLs are a cleared bit in the validity mask (the stored int/code is
   0 and must not be read when the bit is clear).

   The row tuples of the source relation stay reachable through [rel]:
   the engine materializes join environments as pointers to those
   tuples (late materialization), so projection/grouping/aggregation
   shares the row engine's code paths and values verbatim.

   An image is owned by the Database that holds its relation (built by
   Database.make, or by with_relation for the replaced relation) and
   read by every domain; after construction only the lazily built key
   indexes are written, each published once through an atomic slot. *)

type col =
  | C_int of { data : int array; valid : Bitset.t option }
  | C_str of { codes : int array; dict : string array; valid : Bitset.t option }

type keys = {
  ids : int array;
  ints : int array;
  null_id : int;
  start : int array;
  rows : int array;
}

type t = {
  rel : Relation.t;
  nrows : int;
  cols : col array;
  keys : keys option Atomic.t array;  (* lazily-built key index per column *)
}

let nrows t = t.nrows
let col t i = t.cols.(i)
let tuple t i = Relation.tuple t.rel i

(* First index in [dict] holding a string >= [s] (so [Array.length dict]
   when every entry is smaller). [dict] is sorted and duplicate-free. *)
let lower_bound dict s =
  let lo = ref 0 and hi = ref (Array.length dict) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare dict.(mid) s < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let rank dict s =
  let r = lower_bound dict s in
  (r, r < Array.length dict && String.equal dict.(r) s)

(* [lower_bound] over a sorted int array. *)
let int_lower_bound a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let of_relation rel =
  let tuples = Relation.tuples rel in
  let nrows = Array.length tuples in
  let schema = Relation.schema rel in
  let build_col j =
    match Schema.attr_type schema j with
    | Schema.T_int ->
        let data = Array.make nrows 0 in
        let valid = ref None in
        let mark_null i =
          let v =
            match !valid with
            | Some v -> v
            | None ->
                let v = Bitset.full nrows in
                valid := Some v;
                v
          in
          Bitset.clear v i
        in
        for i = 0 to nrows - 1 do
          match tuples.(i).(j) with
          | Value.Int x -> data.(i) <- x
          | Value.Null -> mark_null i
          | Value.Str _ | Value.Ratio _ ->
              invalid_arg "Col_table: non-int value in T_int column"
        done;
        C_int { data; valid = !valid }
    | Schema.T_string ->
        let strings = Array.make nrows "" in
        let present = ref [] in
        let valid = ref None in
        let mark_null i =
          let v =
            match !valid with
            | Some v -> v
            | None ->
                let v = Bitset.full nrows in
                valid := Some v;
                v
          in
          Bitset.clear v i
        in
        for i = 0 to nrows - 1 do
          match tuples.(i).(j) with
          | Value.Str s ->
              strings.(i) <- s;
              present := s :: !present
          | Value.Null -> mark_null i
          | Value.Int _ | Value.Ratio _ ->
              invalid_arg "Col_table: non-string value in T_string column"
        done;
        let dict =
          Array.of_list (List.sort_uniq String.compare !present)
        in
        let codes = Array.make nrows 0 in
        for i = 0 to nrows - 1 do
          (* Null rows keep code 0; their validity bit is clear. *)
          match !valid with
          | Some v when not (Bitset.get v i) -> ()
          | _ -> codes.(i) <- lower_bound dict strings.(i)
        done;
        C_str { codes; dict; valid = !valid }
  in
  let arity = Schema.arity schema in
  {
    rel;
    nrows;
    cols = Array.init arity build_col;
    keys = Array.init arity (fun _ -> Atomic.make None);
  }

(* The key index of one column: a dense id per distinct value (the
   dictionary code of a string column; the rank among the sorted
   distinct values of an int column), NULL as one more id after them,
   and a reverse index from id to rows. Col_eval's joins and star
   pre-checks index and mask on ids: under the equi probes' structural
   Null = Null rule, two cells of one column are equal iff their ids
   are, so NULL needs no special case there.
   Built lazily on first use and published on the table through the
   column's atomic slot: a table belongs to its database, which every
   domain shares, so two domains may build the same index at once;
   the first compare-and-set wins and the loser adopts the winner's
   index (both are equal, a pure function of the column). Each id's
   rows are stored in descending order, the order of a bucket
   cons-built over ascending rows, so the joins enumerate envs in the
   order they always have. *)
let keys t colidx =
  let slot = t.keys.(colidx) in
  match Atomic.get slot with
  | Some k -> k
  | None ->
      let n = t.nrows in
      let ints, ids, null_id =
        match t.cols.(colidx) with
        | C_int { data; valid } ->
            let is_null r =
              match valid with Some v -> not (Bitset.get v r) | None -> false
            in
            let present = ref [] in
            for r = n - 1 downto 0 do
              if not (is_null r) then present := data.(r) :: !present
            done;
            let ints = Array.of_list (List.sort_uniq Int.compare !present) in
            let null_id = Array.length ints in
            let ids =
              Array.init n (fun r ->
                  if is_null r then null_id else int_lower_bound ints data.(r))
            in
            (ints, ids, null_id)
        | C_str { codes; dict; valid } ->
            let null_id = Array.length dict in
            let ids =
              match valid with
              | None -> codes
              | Some v ->
                  Array.init n (fun r ->
                      if Bitset.get v r then codes.(r) else null_id)
            in
            ([||], ids, null_id)
      in
      let start = Array.make (null_id + 2) 0 in
      Array.iter (fun id -> start.(id + 1) <- start.(id + 1) + 1) ids;
      for id = 1 to null_id + 1 do
        start.(id) <- start.(id) + start.(id - 1)
      done;
      let fill = Array.sub start 0 (null_id + 1) in
      let rows = Array.make n 0 in
      for r = n - 1 downto 0 do
        let id = ids.(r) in
        rows.(fill.(id)) <- r;
        fill.(id) <- fill.(id) + 1
      done;
      let k = { ids; ints; null_id; start; rows } in
      if Atomic.compare_and_set slot None (Some k) then k
      else Option.get (Atomic.get slot)

(* The id of [v] in column [colidx]'s key domain, or -1 when no row
   holds it (NULL always has its id, even in a column without NULLs). *)
let key_id t colidx v =
  let k = keys t colidx in
  match (t.cols.(colidx), v) with
  | _, Value.Null -> k.null_id
  | C_int _, Value.Int x ->
      let r = int_lower_bound k.ints x in
      if r < Array.length k.ints && k.ints.(r) = x then r else -1
  | C_str { dict; _ }, Value.Str s -> (
      match rank dict s with r, true -> r | _, false -> -1)
  | (C_int _ | C_str _), (Value.Int _ | Value.Str _ | Value.Ratio _) -> -1

(* One merge walk over two sorted, duplicate-free arrays: [f i j] for
   every pair of positions holding equal values. *)
let merge_equal cmp a b f =
  let i = ref 0 and j = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let c = cmp a.(!i) b.(!j) in
    if c < 0 then incr i
    else if c > 0 then incr j
    else begin
      f !i !j;
      incr i;
      incr j
    end
  done

let translate t colidx src src_col set =
  let kt = keys t colidx and ks = keys src src_col in
  let out = Bitset.create (kt.null_id + 1) in
  if Bitset.get set ks.null_id then Bitset.set out kt.null_id;
  let hit i j = if Bitset.get set j then Bitset.set out i in
  (match (t.cols.(colidx), src.cols.(src_col)) with
  | C_int _, C_int _ -> merge_equal Int.compare kt.ints ks.ints hit
  | C_str { dict; _ }, C_str { dict = src_dict; _ } ->
      merge_equal String.compare dict src_dict hit
  | C_int _, C_str _ | C_str _, C_int _ -> ());
  out
