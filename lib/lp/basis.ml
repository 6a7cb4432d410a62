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

   The initial basis of the transformed problem (slacks on rows with
   nonnegative rhs, artificials elsewhere) is exactly the identity, so
   an empty file is a valid factorization of it. *)

type eta = {
  r : int;  (* pivot row *)
  pr : float;  (* pivot element d_r *)
  idx : int array;  (* off-pivot nonzero rows of d *)
  v : float array;
}

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
   refactorization allocates little beyond the etas it writes. Columns
   and rows are indexed by basis position (0..m-1) and matrix row. The
   active submatrix is held column-wise with values, [c_idx]/[c_val]
   over [0, c_len), and row-wise as patterns, [r_col] over [0, r_len).
   Deletion is lazy: pivoting a row or a column only lowers the active
   counts [c_cnt]/[r_cnt], and a line drops its dead entries when it is
   next read ([compact_col]/[compact_row]). A column's entries in
   pivoted rows move to its U list ([u_idx]/[u_val]) at that point. *)
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
  l_etas : eta array;  (* step -> L eta *)
  cmax : float array;  (* largest active magnitude, or -1 when stale *)
  cb : buckets;
  rb : buckets;
  wpos : int array;  (* row -> its index in [act], or -1 *)
  act : int array;  (* active rows of the pivot column *)
  mult : float array;  (* their multipliers *)
}

type t = {
  m : int;
  mutable etas : eta array;
  mutable len : int;
  mutable fill : int;
  mutable work : work option;
}

let dummy_eta = { r = 0; pr = 1.0; idx = [||]; v = [||] }

let create m =
  { m; etas = Array.make 16 dummy_eta; len = 0; fill = 0; work = None }

let reset t =
  t.len <- 0;
  t.fill <- 0

let eta_count t = t.len
let fill t = t.fill

let append t e =
  if t.len = Array.length t.etas then begin
    let bigger = Array.make (2 * t.len) dummy_eta in
    Array.blit t.etas 0 bigger 0 t.len;
    t.etas <- bigger
  end;
  t.etas.(t.len) <- e;
  t.len <- t.len + 1;
  t.fill <- t.fill + Array.length e.idx + 1

let push t ~r (d : float array) =
  let n = ref 0 in
  Array.iteri (fun i x -> if i <> r && x <> 0.0 then incr n) d;
  let pr = d.(r) in
  (* An identity eta (d = e_r) is a no-op: skip it. *)
  if !n = 0 && pr = 1.0 then ()
  else begin
    let idx = Array.make !n 0 and v = Array.make !n 0.0 in
    let k = ref 0 in
    Array.iteri
      (fun i x ->
        if i <> r && x <> 0.0 then begin
          idx.(!k) <- i;
          v.(!k) <- x;
          incr k
        end)
      d;
    append t { r; pr; idx; v }
  end

let ftran t (w : float array) =
  for k = 0 to t.len - 1 do
    let e = t.etas.(k) in
    let wr = w.(e.r) in
    if wr <> 0.0 then begin
      let wr = wr /. e.pr in
      w.(e.r) <- wr;
      for j = 0 to Array.length e.idx - 1 do
        w.(e.idx.(j)) <- w.(e.idx.(j)) -. (e.v.(j) *. wr)
      done
    end
  done

let btran t (y : float array) =
  for k = t.len - 1 downto 0 do
    let e = t.etas.(k) in
    let s = ref y.(e.r) in
    for j = 0 to Array.length e.idx - 1 do
      s := !s -. (y.(e.idx.(j)) *. e.v.(j))
    done;
    y.(e.r) <- !s /. e.pr
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

(* [a] with room for at least [n + 1] entries, padded with [zero] *)
let room a n zero =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 4 (2 * (n + 1))) zero in
    Array.blit a 0 b 0 (Array.length a);
    b
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
    l_etas = Array.make m dummy_eta;
    cmax = Array.make m (-1.0);
    cb = buckets m;
    rb = buckets m;
    wpos = Array.make m (-1);
    act = Array.make m 0;
    mult = Array.make m 0.0;
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
    Array.iter (fun i -> w.r_cnt.(i) <- w.r_cnt.(i) + 1) c.Sparse.idx
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

(* Largest active magnitude of column [j], cached until [j] changes. *)
let col_max w j =
  if w.cmax.(j) < 0.0 then begin
    compact_col w j;
    let mx = ref 0.0 in
    for e = 0 to w.c_len.(j) - 1 do
      mx := Float.max !mx (Float.abs w.c_val.(j).(e))
    done;
    w.cmax.(j) <- !mx
  end;
  w.cmax.(j)

(* Value of the active entry (i, j); column [j] must be compact. *)
let value w i j =
  let rec go e = if w.c_idx.(j).(e) = i then w.c_val.(j).(e) else go (e + 1) in
  go 0

(* Markowitz search over the active submatrix: the acceptable entry of
   least cost (r_i - 1) * (c_j - 1), visiting lines by increasing count.
   Returns (row, column), or (-1, -1) when the active submatrix is
   numerically singular: an empty column, a column with nothing above
   [tol], or no acceptable entry at all. *)
let search w m ~tol =
  let acceptable a cmax =
    Float.abs a > tol && Float.abs a >= threshold *. cmax
  in
  let best_r = ref (-1) and best_c = ref (-1) and best_cost = ref max_int in
  let singular = ref (w.cb.head.(0) >= 0) in
  let stop = ref !singular and lines = ref 0 in
  let consider i j cost =
    if cost < !best_cost then begin
      best_r := i;
      best_c := j;
      best_cost := cost
    end
  in
  let finish_line found =
    if found then incr lines;
    if !best_cost = 0 || !lines >= search_lines then stop := true
  in
  let n = ref 1 in
  while (not !stop) && !n <= m do
    let cnt = !n in
    let j = ref w.cb.head.(cnt) in
    while (not !stop) && !j >= 0 do
      let jj = !j in
      let cmax = col_max w jj in
      if cmax <= tol then begin
        singular := true;
        stop := true
      end
      else begin
        let found = ref false in
        for e = 0 to cnt - 1 do
          if acceptable w.c_val.(jj).(e) cmax then begin
            found := true;
            let i = w.c_idx.(jj).(e) in
            consider i jj ((w.r_cnt.(i) - 1) * (cnt - 1))
          end
        done;
        finish_line !found
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
        let cmax = col_max w jj in
        if acceptable (value w ii jj) cmax then begin
          found := true;
          consider ii jj ((cnt - 1) * (w.c_cnt.(jj) - 1))
        end
      done;
      finish_line !found;
      i := w.rb.next.(ii)
    done;
    (* every line not yet visited has more than [cnt] active entries *)
    if !best_cost <= cnt * cnt then stop := true;
    incr n
  done;
  if !singular then (-1, -1) else (!best_r, !best_c)

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
  w.l_etas.(k) <-
    (if na = 0 then dummy_eta
     else { r; pr = 1.0; idx = Array.sub w.act 0 na; v = Array.sub w.mult 0 na });
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
    let r, c = search w m ~tol in
    r >= 0
    && begin
         eliminate w k r c;
         loop (k + 1)
       end
  in
  if not (loop 0) then None
  else begin
    reset t;
    for k = 0 to m - 1 do
      if w.l_etas.(k) != dummy_eta then append t w.l_etas.(k);
      w.l_etas.(k) <- dummy_eta
    done;
    for k = m - 1 downto 0 do
      let c = w.piv_col.(k) and pr = w.piv_val.(k) in
      let n = w.u_len.(c) in
      if n > 0 || pr <> 1.0 then
        append t
          {
            r = w.piv_row.(k);
            pr;
            idx = Array.sub w.u_idx.(c) 0 n;
            v = Array.sub w.u_val.(c) 0 n;
          }
    done;
    Some (Array.map (fun k -> w.piv_row.(k)) w.c_step)
  end
