(* Sparse column vectors: the storage unit of the revised simplex.
   A column keeps only its nonzero entries as parallel (row index,
   value) arrays, indices strictly increasing. The constraint matrix
   of a pricing LP is a few percent dense, so per-iteration pricing
   over sparse columns is what lifts the O(rows * cols) per-pivot cost
   of the dense tableau.

   The two pricing kernels below run once per pivot over every column,
   so they are written as plain loops over float arrays: no closure is
   called per column and no float is boxed. *)

type col = { idx : int array; v : float array }

let empty = { idx = [||]; v = [||] }

let nnz c = Array.length c.idx

let of_dense a =
  let n = ref 0 in
  Array.iter (fun x -> if x <> 0.0 then incr n) a;
  if !n = 0 then empty
  else begin
    let idx = Array.make !n 0 and v = Array.make !n 0.0 in
    let k = ref 0 in
    Array.iteri
      (fun i x ->
        if x <> 0.0 then begin
          idx.(!k) <- i;
          v.(!k) <- x;
          incr k
        end)
      a;
    { idx; v }
  end

let unit r x = if x = 0.0 then empty else { idx = [| r |]; v = [| x |] }

let dot c (y : float array) =
  let s = ref 0.0 in
  for k = 0 to Array.length c.idx - 1 do
    s := !s +. (c.v.(k) *. y.(c.idx.(k)))
  done;
  !s

let scatter c (w : float array) =
  for k = 0 to Array.length c.idx - 1 do
    w.(c.idx.(k)) <- c.v.(k)
  done

type rows = {
  ncols : int;
  start : int array;  (* row i's entries are [start.(i), start.(i + 1)) *)
  col : int array;
  rv : float array;
}

let rows_of_cols ~nrows (cols : col array) ~ncols =
  let start = Array.make (nrows + 1) 0 in
  for j = 0 to ncols - 1 do
    Array.iter (fun i -> start.(i + 1) <- start.(i + 1) + 1) cols.(j).idx
  done;
  for i = 0 to nrows - 1 do
    start.(i + 1) <- start.(i + 1) + start.(i)
  done;
  let next = Array.sub start 0 nrows in
  let col = Array.make start.(nrows) 0 and rv = Array.make start.(nrows) 0.0 in
  for j = 0 to ncols - 1 do
    let c = cols.(j) in
    for k = 0 to Array.length c.idx - 1 do
      let i = c.idx.(k) in
      col.(next.(i)) <- j;
      rv.(next.(i)) <- c.v.(k);
      next.(i) <- next.(i) + 1
    done
  done;
  { ncols; start; col; rv }

(* Column j's sum takes the products of its entries in increasing row
   order, as [dot] does. A row with rho_i = +-0 only contributes +-0
   products, and adding +-0 to a sum that starts at +0.0 changes
   nothing (such a sum is never -0.0), so skipping those rows is
   exact. *)
let row_combination a (rho : float array) (alpha : float array) =
  Array.fill alpha 0 a.ncols 0.0;
  let start = a.start and col = a.col and rv = a.rv in
  for i = 0 to Array.length start - 2 do
    let x = rho.(i) in
    if x <> 0.0 then
      for k = start.(i) to start.(i + 1) - 1 do
        let j = col.(k) in
        alpha.(j) <- alpha.(j) +. (rv.(k) *. x)
      done
  done

let price (cols : col array) ~(cost : float array) ~(y : float array)
    ~(basic : bool array) ~limit ~etol ~first (rc : float array) =
  let best = ref (-1) and best_val = ref etol in
  let j = ref 0 in
  while !j < limit do
    let jj = !j in
    if not basic.(jj) then begin
      let c = cols.(jj) in
      let idx = c.idx and v = c.v in
      let s = ref 0.0 in
      for k = 0 to Array.length idx - 1 do
        s := !s +. (v.(k) *. y.(idx.(k)))
      done;
      let r = cost.(jj) -. !s in
      if r > !best_val then begin
        best := jj;
        best_val := r;
        if first then j := limit
      end
    end;
    incr j
  done;
  rc.(0) <- !best_val;
  !best
