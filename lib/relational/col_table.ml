(* Columnar mirror of a relation: one typed array per attribute.

   Strings are dictionary-encoded with the dictionary sorted by
   String.compare, so code order equals string order and every string
   comparison kernel reduces to an integer range test on the codes.
   NULLs are a cleared bit in the validity mask (the stored int/code is
   0 and must not be read when the bit is clear).

   The row tuples of the source relation stay reachable through [rel]:
   the engine materializes join environments as pointers to those
   tuples (late materialization), so projection/grouping/aggregation
   shares the row engine's code paths and values verbatim. *)

type col =
  | C_int of { data : int array; valid : Bitset.t option }
  | C_str of { codes : int array; dict : string array; valid : Bitset.t option }

type t = {
  rel : Relation.t;
  nrows : int;
  cols : col array;
  rev : (Value.t, int list) Hashtbl.t option array;
      (* lazily-built full-table reverse index per column; domain-local
         like the table itself (see [of_relation_cached]) *)
}

let relation t = t.rel
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
  { rel; nrows; cols = Array.init arity build_col; rev = Array.make arity None }

(* Per-domain cache keyed by physical equality on the relation value.
   Databases are immutable and deltas are applied functionally, so a
   physically-equal relation always has the same columnar image. A
   small FIFO association list is enough: a build touches a handful of
   relations, and scanning a few entries with (==) is cheaper than any
   hashing scheme that would have to be safe under a moving GC. *)
let cache_cap = 32

let cache_key : (Relation.t * t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let of_relation_cached rel =
  let cache = Domain.DLS.get cache_key in
  match List.find_opt (fun (r, _) -> r == rel) !cache with
  | Some (_, t) -> t
  | None ->
      let t = of_relation rel in
      let kept =
        if List.length !cache >= cache_cap then
          List.filteri (fun i _ -> i < cache_cap - 1) !cache
        else !cache
      in
      cache := (rel, t) :: kept;
      t

(* Full-table reverse index for one column: every row id holding a
   value, Nulls bucketed under Value.Null. Built at most once per
   (table, column) pair and cached on the table, so the per-query
   reverse indexes over an all-rows selection (the common case — most
   plans place no single-table filter on level 0) share one build.
   Mutation is safe: tables are domain-local (see [of_relation_cached]).
   Buckets hold rows in descending order, matching a cons-push over an
   ascending row scan, so callers see the same lists a per-selection
   build would produce. *)
let rev_index t colidx =
  match t.rev.(colidx) with
  | Some idx -> idx
  | None ->
      let idx = Hashtbl.create (max 16 t.nrows) in
      let push k row =
        Hashtbl.replace idx k
          (row :: Option.value (Hashtbl.find_opt idx k) ~default:[])
      in
      (match t.cols.(colidx) with
      | C_int { data; valid = None } ->
          for row = 0 to t.nrows - 1 do
            push (Value.Int data.(row)) row
          done
      | C_int { data; valid = Some v } ->
          for row = 0 to t.nrows - 1 do
            push
              (if Bitset.get v row then Value.Int data.(row) else Value.Null)
              row
          done
      | C_str { codes; dict; valid = None } ->
          for row = 0 to t.nrows - 1 do
            push (Value.Str dict.(codes.(row))) row
          done
      | C_str { codes; dict; valid = Some v } ->
          for row = 0 to t.nrows - 1 do
            push
              (if Bitset.get v row then Value.Str dict.(codes.(row))
               else Value.Null)
              row
          done);
      t.rev.(colidx) <- Some idx;
      idx

(* The stored value of one cell, as the row engine would see it. *)
let value t row colidx =
  match t.cols.(colidx) with
  | C_int { data; valid } -> (
      match valid with
      | Some v when not (Bitset.get v row) -> Value.Null
      | _ -> Value.Int data.(row))
  | C_str { codes; dict; valid } -> (
      match valid with
      | Some v when not (Bitset.get v row) -> Value.Null
      | _ -> Value.Str dict.(codes.(row)))
