(* Basis factorization for the revised simplex: an eta file.

   The basis inverse is never formed: it is represented as a product of
   elementary (eta) matrices. An eta is the identity with one column r
   replaced by a vector d; applying its inverse costs O(nnz d), so a
   whole FTRAN/BTRAN pass costs the fill of the file, not O(m^2).

   The file has two parts. Reinversion ([factor]) writes a sparse LU
   factorization of the current basis: the L etas in pivot order, then
   the U etas in reverse pivot order (back substitution, one U column
   per eta). Each simplex pivot then appends one product-form eta, the
   FTRAN'd entering column ([push]). [Simplex] reinverts when the
   appended part grows past its refactorization interval, which bounds
   the per-iteration cost and flushes accumulated roundoff.

   The etas live back to back in one flat pool of growable arrays,
   reused across reinversions: a pivot's [push] is one pass over d
   written straight into the pool, and allocates nothing once the pool
   has grown to the family's largest file.

   The initial basis of the transformed problem (slacks on rows with
   nonnegative rhs, artificials elsewhere) is exactly the identity, so
   an empty file is a valid factorization of it. *)

(* Doubly linked lists of lines (columns or rows) bucketed by their
   active nonzero count, so the Markowitz search visits short lines
   first. *)
type buckets = {
  head : int array;  (* count -> first line, or -1 *)
  next : int array;
  prev : int array;
  at : int array;  (* line -> count it is filed under, or -1 *)
}

(* Workspace of one reinversion, kept between calls so that a
   refactorization allocates little. Columns and rows are indexed by
   basis position (0..m-1) and matrix row. The active submatrix is held
   column-wise with values, [c_idx]/[c_val] over [0, c_len), and
   row-wise as patterns, [r_col] over [0, r_len). Deletion is lazy:
   pivoting a row or a column only lowers the active counts
   [c_cnt]/[r_cnt], and a line drops its dead entries when it is next
   read ([compact_col]/[compact_row]). A column's entries in pivoted
   rows move to its U list ([u_idx]/[u_val]) at that point. The L eta
   of pivot step k (unit pivot on row [piv_row.(k)]) is
   [l_idx]/[l_v] over [l_start.(k), l_start.(k + 1)); it is empty when
   the pivot column had nothing below the pivot. *)
type work = {
  c_idx : int array array;
  c_val : float array array;
  c_len : int array;
  c_cnt : int array;
  u_idx : int array array;
  u_val : float array array;
  u_len : int array;
  r_col : int array array;
  r_len : int array;
  r_cnt : int array;
  r_step : int array;  (* row -> pivot step, or -1 while active *)
  c_step : int array;  (* column -> pivot step, or -1 while active *)
  piv_row : int array;  (* step -> row *)
  piv_col : int array;  (* step -> column *)
  piv_val : float array;
  l_start : int array;
  mutable l_idx : int array;
  mutable l_v : float array;
  cmax : float array;  (* largest active magnitude, or -1 when stale *)
  cb : buckets;
  rb : buckets;
  wpos : int array;  (* row -> its index in [act], or -1 *)
  act : int array;  (* active rows of the pivot column *)
  mult : float array;  (* their multipliers *)
  (* the running [search]: best entry so far, its cost, lines visited *)
  mutable best_r : int;
  mutable best_c : int;
  mutable best_cost : int;
  mutable lines : int;
}

(* Eta k pivots on row [r.(k)] with pivot element [pr.(k)]; its
   off-pivot entries are [idx]/[v] over [start.(k), start.(k + 1)).
   [start.(0)] is 0; every array grows on demand ([reserve]). *)
type t = {
  m : int;
  mutable len : int;
  mutable r : int array;
  mutable pr : float array;
  mutable start : int array;
  mutable idx : int array;
  mutable v : float array;
  mutable work : work option;
}

(* [a] with room for at least [n + 1] entries, padded with [zero] *)
let room a n zero =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 4 (2 * (n + 1))) zero in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let create m =
  {
    m;
    len = 0;
    r = Array.make 16 0;
    pr = Array.make 16 0.0;
    start = Array.make 17 0;
    idx = Array.make 64 0;
    v = Array.make 64 0.0;
    work = None;
  }

let reset t = t.len <- 0

let eta_count t = t.len
let fill t = t.start.(t.len) + t.len

let eta t k =
  if k < 0 || k >= t.len then invalid_arg "Basis.eta: index";
  let lo = t.start.(k) and n = t.start.(k + 1) - t.start.(k) in
  (t.r.(k), t.pr.(k), { Sparse.idx = Array.sub t.idx lo n; v = Array.sub t.v lo n })

(* Room for one more eta with up to [n] off-pivot entries. *)
let reserve t n =
  t.r <- room t.r t.len 0;
  t.pr <- room t.pr t.len 0.0;
  t.start <- room t.start (t.len + 1) 0;
  let last = t.start.(t.len) + n - 1 in
  t.idx <- room t.idx last 0;
  t.v <- room t.v last 0.0

(* Close the eta whose entries were just written at
   [start.(len), stop). *)
let close t ~r ~pr ~stop =
  t.r.(t.len) <- r;
  t.pr.(t.len) <- pr;
  t.start.(t.len + 1) <- stop;
  t.len <- t.len + 1

let push t ~r (d : float array) =
  reserve t (Array.length d);
  let idx = t.idx and v = t.v in
  let k0 = t.start.(t.len) in
  let k = ref k0 in
  for i = 0 to Array.length d - 1 do
    let x = d.(i) in
    if i <> r && x <> 0.0 then begin
      idx.(!k) <- i;
      v.(!k) <- x;
      incr k
    end
  done;
  let pr = d.(r) in
  (* An identity eta (d = e_r) is a no-op: skip it. *)
  if !k > k0 || pr <> 1.0 then close t ~r ~pr ~stop:!k

(* Copy entries [lo, lo + n) of [idx]/[v] in as a new eta. *)
let append t ~r ~pr (idx : int array) (v : float array) lo n =
  reserve t n;
  let k0 = t.start.(t.len) in
  Array.blit idx lo t.idx k0 n;
  Array.blit v lo t.v k0 n;
  close t ~r ~pr ~stop:(k0 + n)

let ftran t (w : float array) =
  let r = t.r and pr = t.pr and start = t.start and idx = t.idx and v = t.v in
  for k = 0 to t.len - 1 do
    let er = r.(k) in
    let wr = w.(er) in
    if wr <> 0.0 then begin
      let wr = wr /. pr.(k) in
      w.(er) <- wr;
      for j = start.(k) to start.(k + 1) - 1 do
        let i = idx.(j) in
        w.(i) <- w.(i) -. (v.(j) *. wr)
      done
    end
  done

let btran t (y : float array) =
  let r = t.r and pr = t.pr and start = t.start and idx = t.idx and v = t.v in
  for k = t.len - 1 downto 0 do
    let er = r.(k) in
    let s = ref y.(er) in
    for j = start.(k) to start.(k + 1) - 1 do
      s := !s -. (y.(idx.(j)) *. v.(j))
    done;
    y.(er) <- !s /. pr.(k)
  done

(* --- sparse LU reinversion -------------------------------------------- *)

(* Threshold partial pivoting: an entry may pivot only if it is at least
   this fraction of the largest active entry in its column. *)
let threshold = 0.1

(* The Markowitz search stops after this many lines (columns or rows)
   that held an acceptable pivot. *)
let search_lines = 4

let buckets m =
  {
    head = Array.make (m + 1) (-1);
    next = Array.make m (-1);
    prev = Array.make m (-1);
    at = Array.make m (-1);
  }

let unlink b x =
  if b.at.(x) >= 0 then begin
    if b.prev.(x) >= 0 then b.next.(b.prev.(x)) <- b.next.(x)
    else b.head.(b.at.(x)) <- b.next.(x);
    if b.next.(x) >= 0 then b.prev.(b.next.(x)) <- b.prev.(x);
    b.at.(x) <- -1
  end

let file b x count =
  if b.at.(x) <> count then begin
    unlink b x;
    b.prev.(x) <- -1;
    b.next.(x) <- b.head.(count);
    if b.head.(count) >= 0 then b.prev.(b.head.(count)) <- x;
    b.head.(count) <- x;
    b.at.(x) <- count
  end

let work m =
  {
    c_idx = Array.make m [||];
    c_val = Array.make m [||];
    c_len = Array.make m 0;
    c_cnt = Array.make m 0;
    u_idx = Array.make m [||];
    u_val = Array.make m [||];
    u_len = Array.make m 0;
    r_col = Array.make m [||];
    r_len = Array.make m 0;
    r_cnt = Array.make m 0;
    r_step = Array.make m (-1);
    c_step = Array.make m (-1);
    piv_row = Array.make m (-1);
    piv_col = Array.make m (-1);
    piv_val = Array.make m 0.0;
    l_start = Array.make (m + 1) 0;
    l_idx = Array.make 16 0;
    l_v = Array.make 16 0.0;
    cmax = Array.make m (-1.0);
    cb = buckets m;
    rb = buckets m;
    wpos = Array.make m (-1);
    act = Array.make m 0;
    mult = Array.make m 0.0;
    best_r = -1;
    best_c = -1;
    best_cost = max_int;
    lines = 0;
  }

(* Load the basis columns into the workspace: every row and column
   active, lines filed by count in index order. *)
let load w m (bcols : Sparse.col array) =
  Array.fill w.r_cnt 0 m 0;
  Array.fill w.cb.head 0 (m + 1) (-1);
  Array.fill w.rb.head 0 (m + 1) (-1);
  Array.fill w.cb.at 0 m (-1);
  Array.fill w.rb.at 0 m (-1);
  Array.fill w.r_step 0 m (-1);
  Array.fill w.c_step 0 m (-1);
  for j = 0 to m - 1 do
    let c = bcols.(j) in
    let n = Sparse.nnz c in
    if Array.length w.c_idx.(j) < n then begin
      w.c_idx.(j) <- Array.make n 0;
      w.c_val.(j) <- Array.make n 0.0
    end;
    Array.blit c.Sparse.idx 0 w.c_idx.(j) 0 n;
    Array.blit c.Sparse.v 0 w.c_val.(j) 0 n;
    w.c_len.(j) <- n;
    w.c_cnt.(j) <- n;
    w.u_len.(j) <- 0;
    w.cmax.(j) <- -1.0;
    for e = 0 to n - 1 do
      let i = c.Sparse.idx.(e) in
      w.r_cnt.(i) <- w.r_cnt.(i) + 1
    done
  done;
  for i = 0 to m - 1 do
    if Array.length w.r_col.(i) < w.r_cnt.(i) then
      w.r_col.(i) <- Array.make w.r_cnt.(i) 0;
    w.r_cnt.(i) <- 0
  done;
  for j = 0 to m - 1 do
    for e = 0 to w.c_cnt.(j) - 1 do
      let i = w.c_idx.(j).(e) in
      w.r_col.(i).(w.r_cnt.(i)) <- j;
      w.r_cnt.(i) <- w.r_cnt.(i) + 1
    done
  done;
  Array.blit w.r_cnt 0 w.r_len 0 m;
  for x = m - 1 downto 0 do
    file w.cb x w.c_cnt.(x);
    file w.rb x w.r_cnt.(x)
  done

(* Drop the entries of pivoted rows from column [j] into its U list. *)
let compact_col w j =
  let n = w.c_len.(j) in
  if n > w.c_cnt.(j) then begin
    let idx = w.c_idx.(j) and v = w.c_val.(j) in
    let k = ref 0 in
    for e = 0 to n - 1 do
      let i = idx.(e) in
      if w.r_step.(i) < 0 then begin
        idx.(!k) <- i;
        v.(!k) <- v.(e);
        incr k
      end
      else if v.(e) <> 0.0 then begin
        let u = w.u_len.(j) in
        w.u_idx.(j) <- room w.u_idx.(j) u 0;
        w.u_val.(j) <- room w.u_val.(j) u 0.0;
        w.u_idx.(j).(u) <- i;
        w.u_val.(j).(u) <- v.(e);
        w.u_len.(j) <- u + 1
      end
    done;
    w.c_len.(j) <- !k
  end

(* Drop pivoted columns from the pattern of row [i]. *)
let compact_row w i =
  let n = w.r_len.(i) in
  if n > w.r_cnt.(i) then begin
    let row = w.r_col.(i) in
    let k = ref 0 in
    for e = 0 to n - 1 do
      if w.c_step.(row.(e)) < 0 then begin
        row.(!k) <- row.(e);
        incr k
      end
    done;
    w.r_len.(i) <- !k
  end

(* Refresh [w.cmax.(j)], the largest active magnitude of column [j],
   when it is stale (compacting the column). *)
let refresh_col_max w j =
  if w.cmax.(j) < 0.0 then begin
    compact_col w j;
    let mx = ref 0.0 in
    for e = 0 to w.c_len.(j) - 1 do
      mx := Float.max !mx (Float.abs w.c_val.(j).(e))
    done;
    w.cmax.(j) <- !mx
  end

(* Position of the active entry (i, j) in column [j], which must be
   compact. *)
let position w i j =
  let e = ref 0 in
  while w.c_idx.(j).(!e) <> i do
    incr e
  done;
  !e

let acceptable ~tol a cmax =
  Float.abs a > tol && Float.abs a >= threshold *. cmax

let consider w i j cost =
  if cost < w.best_cost then begin
    w.best_r <- i;
    w.best_c <- j;
    w.best_cost <- cost
  end

(* Close a visited line; true when the search may stop. *)
let finish_line w found =
  if found then w.lines <- w.lines + 1;
  w.best_cost = 0 || w.lines >= search_lines

(* Markowitz search over the active submatrix: the acceptable entry of
   least cost (r_i - 1) * (c_j - 1), visiting lines by increasing count.
   Leaves (row, column) in [w.best_r], [w.best_c], or (-1, -1) when the
   active submatrix is numerically singular: an empty column, a column
   with nothing above [tol], or no acceptable entry at all. *)
let search w m ~tol =
  w.best_r <- -1;
  w.best_c <- -1;
  w.best_cost <- max_int;
  w.lines <- 0;
  let singular = ref (w.cb.head.(0) >= 0) in
  let stop = ref !singular in
  let n = ref 1 in
  while (not !stop) && !n <= m do
    let cnt = !n in
    let j = ref w.cb.head.(cnt) in
    while (not !stop) && !j >= 0 do
      let jj = !j in
      refresh_col_max w jj;
      let cmax = w.cmax.(jj) in
      if cmax <= tol then begin
        singular := true;
        stop := true
      end
      else begin
        let found = ref false in
        for e = 0 to cnt - 1 do
          if acceptable ~tol w.c_val.(jj).(e) cmax then begin
            found := true;
            let i = w.c_idx.(jj).(e) in
            consider w i jj ((w.r_cnt.(i) - 1) * (cnt - 1))
          end
        done;
        if finish_line w !found then stop := true
      end;
      j := w.cb.next.(jj)
    done;
    let i = ref w.rb.head.(cnt) in
    while (not !stop) && !i >= 0 do
      let ii = !i in
      compact_row w ii;
      let found = ref false in
      for e = 0 to cnt - 1 do
        let jj = w.r_col.(ii).(e) in
        refresh_col_max w jj;
        if acceptable ~tol w.c_val.(jj).(position w ii jj) w.cmax.(jj) then begin
          found := true;
          consider w ii jj ((cnt - 1) * (w.c_cnt.(jj) - 1))
        end
      done;
      if finish_line w !found then stop := true;
      i := w.rb.next.(ii)
    done;
    (* every line not yet visited has more than [cnt] active entries *)
    if w.best_cost <= cnt * cnt then stop := true;
    incr n
  done;
  if !singular then begin
    w.best_r <- -1;
    w.best_c <- -1
  end

(* Pivot step [k] on entry (r, c): record the L eta of column c, and
   eliminate column c from the other active rows, with fill-in. Row r
   and column c leave the active submatrix. *)
let eliminate w k r c =
  compact_col w c;
  w.r_step.(r) <- k;
  w.c_step.(c) <- k;
  w.piv_row.(k) <- r;
  w.piv_col.(k) <- c;
  unlink w.cb c;
  unlink w.rb r;
  let na = ref 0 and piv = ref 0.0 in
  for e = 0 to w.c_len.(c) - 1 do
    let i = w.c_idx.(c).(e) in
    if i = r then piv := w.c_val.(c).(e)
    else begin
      w.act.(!na) <- i;
      w.mult.(!na) <- w.c_val.(c).(e);
      w.r_cnt.(i) <- w.r_cnt.(i) - 1;
      incr na
    end
  done;
  let na = !na and piv = !piv in
  w.piv_val.(k) <- piv;
  for s = 0 to na - 1 do
    w.mult.(s) <- w.mult.(s) /. piv
  done;
  let l0 = w.l_start.(k) in
  w.l_idx <- room w.l_idx (l0 + na) 0;
  w.l_v <- room w.l_v (l0 + na) 0.0;
  Array.blit w.act 0 w.l_idx l0 na;
  Array.blit w.mult 0 w.l_v l0 na;
  w.l_start.(k + 1) <- l0 + na;
  compact_row w r;
  for s = 0 to na - 1 do
    w.wpos.(w.act.(s)) <- s
  done;
  for e = 0 to w.r_len.(r) - 1 do
    let j = w.r_col.(r).(e) in
    if j <> c then begin
      w.c_cnt.(j) <- w.c_cnt.(j) - 1;
      w.cmax.(j) <- -1.0;
      if na > 0 then begin
        (* row r is pivoted now, so compaction moves a_rj into U *)
        let u = w.u_len.(j) in
        compact_col w j;
        let arj = ref 0.0 in
        for f = u to w.u_len.(j) - 1 do
          if w.u_idx.(j).(f) = r then arj := w.u_val.(j).(f)
        done;
        let arj = !arj in
        if arj <> 0.0 then begin
          (* update the entries column j shares with column c, marking
             their rows; the unmarked rows of column c are fill-in *)
          let ci = w.c_idx.(j) and cv = w.c_val.(j) in
          for f = 0 to w.c_len.(j) - 1 do
            let s = w.wpos.(ci.(f)) in
            if s >= 0 then begin
              cv.(f) <- cv.(f) -. (w.mult.(s) *. arj);
              w.wpos.(ci.(f)) <- -2
            end
          done;
          for s = 0 to na - 1 do
            let i = w.act.(s) in
            if w.wpos.(i) = -2 then w.wpos.(i) <- s
            else begin
              let n = w.c_len.(j) in
              w.c_idx.(j) <- room w.c_idx.(j) n 0;
              w.c_val.(j) <- room w.c_val.(j) n 0.0;
              w.c_idx.(j).(n) <- i;
              w.c_val.(j).(n) <- -.(w.mult.(s) *. arj);
              w.c_len.(j) <- n + 1;
              w.c_cnt.(j) <- w.c_cnt.(j) + 1;
              let rn = w.r_len.(i) in
              w.r_col.(i) <- room w.r_col.(i) rn 0;
              w.r_col.(i).(rn) <- j;
              w.r_len.(i) <- rn + 1;
              w.r_cnt.(i) <- w.r_cnt.(i) + 1
            end
          done
        end
      end;
      file w.cb j w.c_cnt.(j)
    end
  done;
  for s = 0 to na - 1 do
    let i = w.act.(s) in
    w.wpos.(i) <- -1;
    file w.rb i w.r_cnt.(i)
  done

let factor t ~tol (bcols : Sparse.col array) =
  let m = t.m in
  if Array.length bcols <> m then invalid_arg "Basis.factor: column count";
  let w =
    match t.work with
    | Some w -> w
    | None ->
        let w = work m in
        t.work <- Some w;
        w
  in
  load w m bcols;
  let rec loop k =
    k = m
    ||
    begin
      search w m ~tol;
      w.best_r >= 0
      && begin
           eliminate w k w.best_r w.best_c;
           loop (k + 1)
         end
    end
  in
  if not (loop 0) then None
  else begin
    reset t;
    for k = 0 to m - 1 do
      let lo = w.l_start.(k) and hi = w.l_start.(k + 1) in
      if hi > lo then append t ~r:w.piv_row.(k) ~pr:1.0 w.l_idx w.l_v lo (hi - lo)
    done;
    for k = m - 1 downto 0 do
      let c = w.piv_col.(k) and pr = w.piv_val.(k) in
      let n = w.u_len.(c) in
      if n > 0 || pr <> 1.0 then
        append t ~r:w.piv_row.(k) ~pr w.u_idx.(c) w.u_val.(c) 0 n
    done;
    Some (Array.map (fun k -> w.piv_row.(k)) w.c_step)
  end
