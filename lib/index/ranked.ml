(* Parallel [keys]/[ids] arrays. Positions [0, ready) hold ranks 1..ready in
   final (key, id) order. A scan holds every in-range target from the start
   ([len] of them) and sorts [ready, len) on demand; a memo holds exactly
   what its search has pushed ([ready = len]) and pulls for more. *)

type t = {
  mutable keys : float array;
  mutable ids : int array;
  mutable len : int;
  mutable ready : int;
  mutable fill : fill;
}

and fill =
  | All  (* every target is held; the tail is sorted on demand *)
  | Pull of (t -> int -> bool)

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

let rescan t ~n ~cutoff key =
  let keys = Array.make n 0. and ids = Array.make n 0 in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    keys.(!kept) <- key i;
    if keys.(!kept) < cutoff then begin
      ids.(!kept) <- i;
      incr kept
    end
  done;
  t.keys <- keys;
  t.ids <- ids;
  t.len <- !kept;
  t.ready <- 0;
  t.fill <- All

let memo pull = { keys = [||]; ids = [||]; len = 0; ready = 0; fill = Pull pull }

let scan ~n ~cutoff key =
  let t = { keys = [||]; ids = [||]; len = 0; ready = 0; fill = All } in
  rescan t ~n ~cutoff key;
  t

let push t id key =
  if t.len = Array.length t.ids then begin
    let capacity = Int.max 8 (2 * t.len) in
    let keys = Array.make capacity 0. and ids = Array.make capacity 0 in
    Array.blit t.keys 0 keys 0 t.len;
    Array.blit t.ids 0 ids 0 t.len;
    t.keys <- keys;
    t.ids <- ids
  end;
  t.keys.(t.len) <- key;
  t.ids.(t.len) <- id;
  t.len <- t.len + 1;
  t.ready <- t.len

let rec reach t rank =
  rank <= t.ready
  ||
  match t.fill with
  | All ->
      if rank <= t.len then extend t rank;
      rank <= t.len
  | Pull pull ->
      if pull t rank then reach t rank
      else begin
        t.fill <- All;
        false
      end

let[@inline] id t rank = t.ids.(rank - 1)
let[@inline] key t rank = t.keys.(rank - 1)

let get t rank =
  assert (rank >= 1);
  if reach t rank then Some (id t rank, key t rank) else None

let known t = t.ready
