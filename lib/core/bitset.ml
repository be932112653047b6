(* Flat bitsets over a fixed index range, 32 bits per word.

   The conflict feasibility probes — "does user u already attend an event
   conflicting with v?" — used to walk an adjacency set per candidate;
   encoding each conflict row and each user's assigned-event set as a
   bitset turns the probe into a word-AND scan over [range/32] ints.
   Words hold 32 bits, not the native 62, so the index split compiles to
   a shift and a mask: ocamlopt will not strength-reduce a division by a
   non-power-of-two width into anything cheaper than an idiv, and the
   split sits on the hot path of every greedy pop and repair step. *)

type t = int array

let width = 32

let create ~bits =
  assert (bits >= 0);
  Array.make ((bits + width - 1) / width) 0

let[@inline] word i = i lsr 5
let[@inline] mask i = 1 lsl (i land 31)

let[@inline] set t i = t.(word i) <- t.(word i) lor mask i
let[@inline] reset t i = t.(word i) <- t.(word i) land lnot (mask i)
let[@inline] mem t i = t.(word i) land mask i <> 0

let[@inline] intersects a b =
  let n = Stdlib.min (Array.length a) (Array.length b) in
  let i = ref 0 in
  let hit = ref false in
  (* poll: ok — at most range/32 words, no allocation *)
  while (not !hit) && !i < n do
    if a.(!i) land b.(!i) <> 0 then hit := true;
    incr i
  done;
  !hit

(* Smallest index set in both, or -1: the witness for error reporting,
   off the hot path (callers probe [intersects] first). *)
let first_common a b =
  let n = Stdlib.min (Array.length a) (Array.length b) in
  let found = ref (-1) in
  let i = ref 0 in
  (* poll: ok — at most range/32 words, no allocation *)
  while !found < 0 && !i < n do
    let w = a.(!i) land b.(!i) in
    if w <> 0 then begin
      (* Lowest set bit of a non-zero word. *)
      let b0 = ref 0 and w = ref w in
      while !w land 1 = 0 do
        incr b0;
        w := !w lsr 1
      done;
      found := (!i * width) + !b0
    end;
    incr i
  done;
  !found

let clear t = Array.fill t 0 (Array.length t) 0

let iter t f =
  Array.iteri
    (fun i w ->
      if w <> 0 then
        for b = 0 to width - 1 do
          if w land (1 lsl b) <> 0 then f ((i * width) + b)
        done)
    t

let grow t ~bits =
  let words = (bits + width - 1) / width in
  if words <= Array.length t then t
  else begin
    let g = Array.make words 0 in
    Array.blit t 0 g 0 (Array.length t);
    g
  end
let copy = Array.copy
