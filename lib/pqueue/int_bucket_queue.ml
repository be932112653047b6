(* Monotone integer priority queue: a one-level radix heap.

   Dial's classic bucket array needs one bucket per distinct key, which is
   hopeless at the 2^30 cost scale the integer SSP kernel quantises to.
   The radix variant keeps 64 buckets instead: an entry with key [k] lives
   in bucket 0 when [k = last] (the floor — the largest key popped so far)
   and otherwise in bucket [1 + msb (k lxor last)], i.e. buckets group keys
   by the position of their highest bit differing from the floor.

   Pops drain bucket 0; when it is empty, the smallest non-empty bucket
   [b] is scanned once for its minimum [m], the floor advances to [m] and
   the bucket's entries are re-dealt. Every re-dealt entry lands strictly
   below [b]: all keys in bucket [b] agree with each other on bits at and
   above [b - 1] (they share the floor's bits above the differing one and
   all differ from the floor at it), so their xor against the new floor
   has a strictly lower top bit. Each entry therefore moves down at most
   63 times over its lifetime — amortised O(63) per push/pop pair, with no
   sift, which is what lets the integer Dijkstra beat a binary heap.

   The monotonicity contract is Dijkstra's: every pushed key must be at
   least the last popped key (reduced costs are non-negative, so a settled
   node only generates keys at or above its own). [push] enforces it.

   Array accesses in the hot paths go through [Geacc_unsafe] under stage-4
   licences. Bucket indices are covered by the fixed 64-slot geometry of
   the three columns; the per-bucket length invariant [0 <= lens.(b) <=
   |keys.(b)| = |payloads.(b)|] lives in nested arrays the analyzer's
   domain cannot index, so each unsafe slot access sits under a cheap
   runtime assert restating it — the assert is both the safety net and
   the fact the analyzer re-proves the licence from ([check_invariant]
   re-checks the same invariant wholesale). `--profile safe` compiles the same sites
   back to checked accesses. See DESIGN.md §13. *)

module A = Geacc_unsafe

let buckets = 64

type t = {
  mutable last : int;             (* floor: largest key popped so far *)
  mutable size : int;
  keys : int array array;         (* parallel growable per-bucket stores *)
  payloads : int array array;
  lens : int array;
}

let create () =
  {
    last = 0;
    size = 0;
    keys = Array.make buckets [||];
    payloads = Array.make buckets [||];
    lens = Array.make buckets 0;
  }

let[@inline] length t = t.size
let[@inline] is_empty t = t.size = 0

(* Bucket of key [k] against floor [last]: 0 when equal, else one past the
   position of the highest differing bit (a six-step binary msb search —
   keys are non-negative, so at most bit 61 differs and indices stay below
   [buckets]). *)
let[@inline] bucket_index ~last k =
  let x = k lxor last in
  if x = 0 then 0
  else begin
    let i = ref 1 and x = ref x in
    if !x lsr 32 <> 0 then begin
      i := !i + 32;
      x := !x lsr 32
    end;
    if !x lsr 16 <> 0 then begin
      i := !i + 16;
      x := !x lsr 16
    end;
    if !x lsr 8 <> 0 then begin
      i := !i + 8;
      x := !x lsr 8
    end;
    if !x lsr 4 <> 0 then begin
      i := !i + 4;
      x := !x lsr 4
    end;
    if !x lsr 2 <> 0 then begin
      i := !i + 2;
      x := !x lsr 2
    end;
    if !x lsr 1 <> 0 then incr i;
    !i
  end

let[@inline] append t b key payload =
  (* [b] always comes from [bucket_index], whose result lies in
     [0, buckets) — the size of all three columns. The assert restates
     that against one column; the other two transfer because all three
     have exactly [buckets] slots (a fact the analyzer carries on the
     queue record), keeping the per-push check to a single compare
     chain. *)
  assert (0 <= b && b < Array.length t.lens);
  (* bounds: proved — b < |lens| (entry assert) *)
  let len = A.unsafe_get t.lens b in
  (* bounds: proved — b < |lens| = buckets = |keys| (entry assert) *)
  let ks0 = A.unsafe_get t.keys b in
  if len = Array.length ks0 then begin
    let cap = Stdlib.max 8 (2 * len) in
    let ks = Array.make cap 0 and ps = Array.make cap 0 in
    Array.blit ks0 0 ks 0 len;
    (* bounds: proved — b < |lens| = buckets = |payloads| (entry assert) *)
    Array.blit (A.unsafe_get t.payloads b) 0 ps 0 len;
    (* bounds: proved — b < |lens| = buckets = |keys| (entry assert) *)
    A.unsafe_set t.keys b ks;
    (* bounds: proved — b < |lens| = buckets = |payloads| (entry assert) *)
    A.unsafe_set t.payloads b ps
  end;
  (* bounds: proved — b < |lens| = buckets = |keys| (entry assert) *)
  let ks = A.unsafe_get t.keys b in
  (* bounds: proved — b < |lens| = buckets = |payloads| (entry assert) *)
  let ps = A.unsafe_get t.payloads b in
  (* The per-bucket length invariant, freshly re-established by the
     growth branch; hands the analyzer the slot bounds for the stores. *)
  assert (0 <= len && len < Array.length ks && len < Array.length ps);
  (* bounds: proved — 0 <= len < |ks| (length assert above) *)
  A.unsafe_set ks len key;
  (* bounds: proved — 0 <= len < |ps| (length assert above) *)
  A.unsafe_set ps len payload;
  (* bounds: proved — b < buckets = |lens| (entry assert) *)
  A.unsafe_set t.lens b (len + 1)

let[@inline] push t key payload =
  if key < t.last then
    invalid_arg "Int_bucket_queue.push: key below the monotone floor";
  append t (bucket_index ~last:t.last key) key payload;
  t.size <- t.size + 1

(* Make bucket 0 non-empty (requires [size > 0] and bucket 0 empty):
   advance the floor to the minimum of the smallest non-empty bucket and
   re-deal its entries. *)
let redeal t =
  let b = ref 1 in
  (* poll: ok — at most [buckets] probes; size > 0 guarantees a hit *)
  while t.lens.(!b) = 0 do
    incr b
  done;
  let b = !b in
  let ks = t.keys.(b) and ps = t.payloads.(b) and n = t.lens.(b) in
  (* Non-empty by the scan above; within capacity is the per-bucket
     invariant. The assert is the analyzer's handle on the scans below. *)
  assert (1 <= n && n <= Array.length ks && n <= Array.length ps);
  (* bounds: proved — 0 < n <= |ks| (length assert above) *)
  let m = ref (A.unsafe_get ks 0) in
  for i = 1 to n - 1 do
    (* bounds: proved — i < n <= |ks| (length assert above) *)
    let k = A.unsafe_get ks i in
    if k < !m then m := k
  done;
  t.last <- !m;
  t.lens.(b) <- 0;
  for i = 0 to n - 1 do
    (* bounds: proved — i < n <= |ks| (length assert above) *)
    let k = A.unsafe_get ks i in
    (* The radix invariant puts every re-dealt entry strictly below
       [b]; [append]'s own entry assert covers the store. *)
    let nb = bucket_index ~last:t.last k in
    (* bounds: proved — i < n <= |ps| (length assert above) *)
    append t nb k (A.unsafe_get ps i)
  done

(* The one unboxed pop: the Dijkstra loop takes the payload and reads the
   key as the floor, with no [Some (key, payload)] allocation and one
   emptiness check. Bucket 0 holds exactly the entries keyed at the floor,
   so the re-deal runs only when it has run dry. *)
let pop_min t =
  if t.size = 0 then invalid_arg "Int_bucket_queue.pop_min: empty queue";
  (* bounds: proved — 0 < buckets = |lens| (fixed geometry) *)
  if A.unsafe_get t.lens 0 = 0 then redeal t;
  (* bounds: proved — 0 < buckets = |payloads| (fixed geometry) *)
  let ps = A.unsafe_get t.payloads 0 in
  (* bounds: proved — 0 < buckets = |lens| (fixed geometry) *)
  let n = A.unsafe_get t.lens 0 in
  (* Bucket 0 is non-empty after the re-deal; within capacity is the
     per-bucket invariant. *)
  assert (1 <= n && n <= Array.length ps);
  (* bounds: proved — 0 < buckets = |lens| (fixed geometry) *)
  A.unsafe_set t.lens 0 (n - 1);
  t.size <- t.size - 1;
  (* bounds: proved — 0 <= n - 1 < |ps| (length assert above) *)
  A.unsafe_get ps (n - 1)

let[@inline] floor t = t.last

let pop t =
  if t.size = 0 then None
  else begin
    let payload = pop_min t in
    Some (t.last, payload)
  end

let clear t =
  t.last <- 0;
  t.size <- 0;
  Array.fill t.lens 0 buckets 0

(* Audit hook: the structural facts the queue's correctness rests on —
   bucket placement of every live entry against the current floor, stored
   lengths within capacity, and the size equal to the bucket total. *)
let check_invariant t =
  let ok = ref (t.size >= 0 && t.last >= 0) in
  let total = ref 0 in
  for b = 0 to buckets - 1 do
    let n = t.lens.(b) in
    if n < 0 || n > Array.length t.keys.(b) || n > Array.length t.payloads.(b)
    then ok := false
    else begin
      total := !total + n;
      for i = 0 to n - 1 do
        let k = t.keys.(b).(i) in
        if k < t.last || bucket_index ~last:t.last k <> b then ok := false
      done
    end
  done;
  !ok && !total = t.size
