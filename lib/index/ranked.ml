(* Parallel [keys]/[ids] arrays holding every in-range target ([len] of
   them). Positions [0, ready) hold ranks 1..ready in final (key, id)
   order; [ready, len) is sorted on demand. *)

type t = {
  keys : float array;
  ids : int array;
  len : int;
  mutable ready : int;
}

let[@inline] less t i j =
  let a = t.keys.(i) and b = t.keys.(j) in
  a < b || (a = b && t.ids.(i) < t.ids.(j))

let[@inline] swap t i j =
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let x = t.ids.(i) in
  t.ids.(i) <- t.ids.(j);
  t.ids.(j) <- x

(* Lomuto partition of [lo, hi) around a median-of-three pivot; returns the
   pivot's final position. Ids are unique, so the order is strict. *)
let partition t lo hi =
  let mid = lo + ((hi - lo) / 2) and last = hi - 1 in
  (* Move the minimum of first/middle/last into [lo]; the median of the
     other two is then their minimum, moved into [last]. *)
  if less t mid lo then swap t mid lo;
  if less t last lo then swap t last lo;
  if less t mid last then swap t mid last;
  let store = ref lo in
  for i = lo to hi - 2 do
    if less t i last then begin
      swap t i !store;
      incr store
    end
  done;
  swap t !store last;
  !store

let insertion_max = 16

let insertion t lo hi =
  let j = ref lo in
  for i = lo + 1 to hi - 1 do
    j := i;
    while !j > lo && less t !j (!j - 1) do
      swap t !j (!j - 1);
      decr j
    done
  done

(* Partial quicksort: afterwards [lo, k) holds the k - lo smallest entries
   of [lo, hi) in order (all of [lo, hi) when k >= hi). *)
let rec sort_prefix t lo hi k =
  if hi - lo <= insertion_max then insertion t lo hi
  else begin
    let p = partition t lo hi in
    sort_prefix t lo p k;
    if k > p + 1 then sort_prefix t (p + 1) hi k
  end

(* Extend the sorted prefix past [rank] by a geometric chunk. *)
let[@inline] extend t rank =
  let target = Int.min t.len (Int.max (Int.max (2 * t.ready) rank) 32) in
  sort_prefix t t.ready t.len target;
  t.ready <- target

let scan ~n ~cutoff key =
  let keys = Array.make n 0. and ids = Array.make n 0 in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    keys.(!kept) <- key i;
    if keys.(!kept) < cutoff then begin
      ids.(!kept) <- i;
      incr kept
    end
  done;
  { keys; ids; len = !kept; ready = 0 }

let length t = t.len

let reach t rank =
  if rank <= t.ready then true
  else if rank <= t.len then begin
    extend t rank;
    true
  end
  else false

let[@inline] id t rank = t.ids.(rank - 1)
let[@inline] key t rank = t.keys.(rank - 1)

let get t rank =
  assert (rank >= 1);
  if reach t rank then Some (id t rank, key t rank) else None

let known t = t.ready
