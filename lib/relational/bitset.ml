(* Packed bit vector over 63-bit words. The predicate kernels build one
   of these per conjunct and combine them with whole-word boolean
   operations; the tail bits of the last word are kept zero so that
   word-wise combination never sets a bit past [len]. *)

type t = { words : int array; len : int }

let width = 63

let nwords len = (len + width - 1) / width

let create len = { words = Array.make (nwords len) 0; len }

(* Mask keeping only the valid bits of the last word. *)
let tail_mask len =
  let r = len mod width in
  if r = 0 then -1 else (1 lsl r) - 1

let full len =
  let t = { words = Array.make (nwords len) (-1); len } in
  let n = nwords len in
  if n > 0 then t.words.(n - 1) <- t.words.(n - 1) land tail_mask len;
  t

let length t = t.len

let get t i = (t.words.(i / width) lsr (i mod width)) land 1 = 1

let set t i = t.words.(i / width) <- t.words.(i / width) lor (1 lsl (i mod width))

let clear t i =
  t.words.(i / width) <- t.words.(i / width) land lnot (1 lsl (i mod width))

let init len f =
  let t = create len in
  for wi = 0 to nwords len - 1 do
    let base = wi * width in
    let hi = min (width - 1) (len - 1 - base) in
    let acc = ref 0 in
    for b = 0 to hi do
      acc := !acc lor (Bool.to_int (f (base + b)) lsl b)
    done;
    t.words.(wi) <- !acc
  done;
  t

let gather t ids =
  let n = Array.length ids in
  let out = create n in
  let words = t.words in
  for wi = 0 to nwords n - 1 do
    let base = wi * width in
    let acc = ref 0 in
    for b = 0 to min (width - 1) (n - 1 - base) do
      let id = ids.(base + b) in
      acc := !acc lor (((words.(id / width) lsr (id mod width)) land 1) lsl b)
    done;
    out.words.(wi) <- !acc
  done;
  out

let check_len a b op =
  if a.len <> b.len then invalid_arg ("Bitset." ^ op ^ ": length mismatch")

let inter_into dst src =
  check_len dst src "inter_into";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let union_into dst src =
  check_len dst src "union_into";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let complement_into t =
  let n = nwords t.len in
  for i = 0 to n - 1 do
    t.words.(i) <- lnot t.words.(i)
  done;
  if n > 0 then t.words.(n - 1) <- t.words.(n - 1) land tail_mask t.len

(* Population count of one word: SWAR over its low 32 and high 31 bits,
   each of which fits the 32-bit masks without touching the sign bit. *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) lsr 24) land 0xFF

let popcount w = popcount32 (w land 0xFFFFFFFF) + popcount32 (w lsr 32)

(* Index of the lowest set bit of a nonzero word: [w land (-w)]
   isolates it, and the ones below it count its position. Bit 62 (the
   sign bit) isolates to [min_int], and [min_int - 1 = max_int] has 62
   ones, so the top bit needs no special case. *)
let lowest_bit w = popcount ((w land (-w)) - 1)

let iter f t =
  for wi = 0 to Array.length t.words - 1 do
    let w = ref t.words.(wi) in
    let base = wi * width in
    while !w <> 0 do
      f (base + lowest_bit !w);
      w := !w land (!w - 1)
    done
  done

let scatter t ids len =
  let out = create len in
  let ow = out.words in
  for wi = 0 to Array.length t.words - 1 do
    let w = ref t.words.(wi) in
    let base = wi * width in
    while !w <> 0 do
      let id = ids.(base + lowest_bit !w) in
      ow.(id / width) <- ow.(id / width) lor (1 lsl (id mod width));
      w := !w land (!w - 1)
    done
  done;
  out

let count t =
  let c = ref 0 in
  for wi = 0 to Array.length t.words - 1 do
    c := !c + popcount t.words.(wi)
  done;
  !c

let to_array t =
  let out = Array.make (count t) 0 in
  let k = ref 0 in
  iter
    (fun i ->
      out.(!k) <- i;
      incr k)
    t;
  out
