type arc = int

(* Hot accessors index the parallel arrays through [Geacc_unsafe] under
   stage-4 licences: every licensed index is re-proved by `dune build
   @bounds` from the structural invariants below (seeded for the analyzer,
   runtime-verified by Audit.Flow.check_csr and the construction asserts):

     0 <= count <= |dst_|, |cap_|, |initial_cap|, |icost_|
     dst_ holds nodes in [0, num_nodes)
     csr_valid  =>  |csr_offset| = num_nodes + 1,
                    |csr_res| = |csr_live| = |csr_cursor| = num_nodes,
                    count <= |csr_dst|, |csr_icost|, |csr_cap|,
                             |csr_arc|, |arc_pos|,
                    csr_offset/csr_res/csr_live/csr_cursor values in
                    [0, count],
                    csr_arc/arc_pos a permutation pair of [0, count)

   `--profile safe` compiles the same sites back to checked accesses. *)
module A = Geacc_unsafe

(* Arcs live in parallel growable arrays; arc [a]'s residual partner is
   [a lxor 1], so the source of [a] is the destination of its partner and
   no adjacency is stored beside the arc store. *)
type t = {
  num_nodes : int;
  mutable dst_ : int array;
  mutable cap_ : int array;          (* residual capacity *)
  mutable initial_cap : int array;   (* capacity at creation, for reset/flow *)
  mutable icost_ : int array;        (* integer cost per unit of flow *)
  mutable count : int;
  (* CSR mirror of the arc store, built by [finalize_csr]: positions are
     grouped per source node ([csr_offset]) and hold per-position copies of
     dst/cost plus the residual capacity. Each node's slice is laid out as
     [forward arcs, cost-ascending | live residual arcs | dead residual
     arcs]: [csr_res] is the first residual position of a node and
     [csr_live] one past its last live (capacity > 0) residual position.
     [csr_cursor] is a node's first forward position with capacity > 0
     ([csr_res] when its forward run is saturated), so a walk of the run
     starts past its saturated head. [csr_arc] maps a position back to its
     arc id and [arc_pos] inverts it;
     [csr_count] is the arc count the mirror was built for (-1 = never
     built), so adding arcs invalidates it while [push] keeps it current in
     place. *)
  mutable csr_count : int;
  mutable csr_offset : int array;    (* num_nodes + 1 *)
  mutable csr_res : int array;       (* num_nodes *)
  mutable csr_live : int array;      (* num_nodes *)
  mutable csr_cursor : int array;    (* num_nodes *)
  mutable csr_dst : int array;
  mutable csr_icost : int array;
  mutable csr_cap : int array;
  mutable csr_arc : int array;       (* position -> arc id *)
  mutable arc_pos : int array;       (* arc id -> position *)
}

let create ~num_nodes =
  assert (num_nodes >= 0);
  {
    num_nodes;
    dst_ = [||];
    cap_ = [||];
    initial_cap = [||];
    icost_ = [||];
    count = 0;
    csr_count = -1;
    csr_offset = [||];
    csr_res = [||];
    csr_live = [||];
    csr_cursor = [||];
    csr_dst = [||];
    csr_icost = [||];
    csr_cap = [||];
    csr_arc = [||];
    arc_pos = [||];
  }

let node_count t = t.num_nodes
let arc_count t = t.count

let ensure_capacity t needed =
  let current = Array.length t.dst_ in
  if needed > current then begin
    let fresh = Stdlib.max needed (Stdlib.max 16 (2 * current)) in
    let grow_int a = Array.append a (Array.make (fresh - current) 0) in
    t.dst_ <- grow_int t.dst_;
    t.cap_ <- grow_int t.cap_;
    t.initial_cap <- grow_int t.initial_cap;
    t.icost_ <- grow_int t.icost_
  end

let reserve t ~arcs =
  assert (arcs >= 0);
  (* Every add_arc consumes two slots (forward + residual partner). *)
  ensure_capacity t (t.count + (2 * arcs))

let add_half t ~dst ~capacity ~cost =
  let a = t.count in
  ensure_capacity t (a + 1);
  t.dst_.(a) <- dst;
  t.cap_.(a) <- capacity;
  t.initial_cap.(a) <- capacity;
  t.icost_.(a) <- cost;
  t.count <- a + 1;
  a

let add_arc t ~src ~dst ~capacity ~cost =
  assert (capacity >= 0);
  assert (src >= 0 && src < t.num_nodes && dst >= 0 && dst < t.num_nodes);
  let a = add_half t ~dst ~capacity ~cost in
  let (_ : int) = add_half t ~dst:src ~capacity:0 ~cost:(-cost) in
  a

let[@inline] partner a = a lxor 1

let[@inline] check_arc t a =
  assert (a >= 0 && a < t.count)

let[@inline] dst t a =
  check_arc t a;
  (* bounds: proved — check_arc gives a < count <= |dst_| *)
  A.unsafe_get t.dst_ a

let[@inline] src t a =
  check_arc t a;
  (* The source of an arc is the destination of its partner. *)
  (* bounds: proved — arcs are paired, so partner a < count <= |dst_| *)
  A.unsafe_get t.dst_ (partner a)

let[@inline] icost t a =
  check_arc t a;
  (* bounds: proved — check_arc gives a < count <= |icost_| *)
  A.unsafe_get t.icost_ a

let[@inline] residual_capacity t a =
  check_arc t a;
  (* bounds: proved — check_arc gives a < count <= |cap_| *)
  A.unsafe_get t.cap_ a

let initial_capacity t a =
  check_arc t a;
  (* bounds: proved — check_arc gives a < count <= |initial_cap| *)
  A.unsafe_get t.initial_cap a

let[@inline] csr_valid t = t.csr_count = t.count

(* -- Live-run and cursor upkeep -----------------------------------------

   Capacity writes never move a forward arc, but a residual arc whose
   capacity crosses zero must cross its node's live-run boundary
   [csr_live]. One position swap does it and keeps [arc_pos] the inverse
   of [csr_arc]. A forward arc whose capacity crosses zero moves its
   node's cursor instead. They run a handful of times per augmentation
   (and in the rare forward-run sort below), so they stay on checked
   accesses. *)

let[@inline] swap_cells (a : int array) p q =
  let x = a.(p) in
  a.(p) <- a.(q);
  a.(q) <- x

let swap_positions t p q =
  let a = t.csr_arc.(p) and b = t.csr_arc.(q) in
  t.arc_pos.(a) <- q;
  t.arc_pos.(b) <- p;
  swap_cells t.csr_arc p q;
  swap_cells t.csr_dst p q;
  swap_cells t.csr_icost p q;
  swap_cells t.csr_cap p q

(* Puts residual arc [r] on the side of its node's live-run boundary that
   its current capacity selects. Requires [csr_valid]. *)
let relive t r =
  let s = t.dst_.(partner r) in
  let p = t.arc_pos.(r) and e = t.csr_live.(s) in
  if t.cap_.(r) > 0 then begin
    if p >= e then begin
      swap_positions t p e;
      t.csr_live.(s) <- e + 1
    end
  end
  else if p < e then begin
    swap_positions t p (e - 1);
    t.csr_live.(s) <- e - 1
  end

(* The first position of [s]'s forward run from [p] on that has
   capacity, or the run's end. *)
let first_open t s p =
  let e = t.csr_res.(s) and q = ref p in
  (* poll: ok — one pass over part of one node's forward run *)
  while !q < e && t.csr_cap.(!q) <= 0 do
    incr q
  done;
  !q

(* Keeps forward arc [f]'s node cursor on the first forward position with
   capacity after [f]'s capacity changed. Requires [csr_valid]. A revived
   arc before the cursor becomes it; a saturated arc at the cursor moves
   it past the zero-capacity positions that follow. *)
let recursor t f =
  let s = t.dst_.(partner f) in
  let p = t.arc_pos.(f) and c = t.csr_cursor.(s) in
  if t.cap_.(f) > 0 then begin
    if p < c then t.csr_cursor.(s) <- p
  end
  else if p = c then t.csr_cursor.(s) <- first_open t s (p + 1)

(* Every node's cursor from scratch, off the positional capacities. *)
let rescan_cursors t =
  for s = 0 to t.num_nodes - 1 do
    t.csr_cursor.(s) <- first_open t s t.csr_offset.(s)
  done

(* bounds: proved — fault-injection hook; check_arc guards a, mirror write follows arc_pos permutation *)
let unsafe_set_residual_capacity t a k =
  check_arc t a;
  (* bounds: proved — check_arc gives a < count <= |cap_| *)
  A.unsafe_set t.cap_ a k;
  if csr_valid t then begin
    (* bounds: proved — a < count <= |arc_pos|, arc_pos.(a) < count <= |csr_cap| *)
    A.unsafe_set t.csr_cap (A.unsafe_get t.arc_pos a) k;
    if a land 1 = 1 then relive t a else recursor t a
  end

let flow t a =
  check_arc t a;
  if a land 1 <> 0 then invalid_arg "Graph.flow: residual arc";
  (* bounds: proved — check_arc gives a < count <= |initial_cap| = |cap_| *)
  A.unsafe_get t.initial_cap a - A.unsafe_get t.cap_ a

let[@inline] push t a k =
  check_arc t a;
  assert (0 <= k && k <= t.cap_.(a));
  let b = partner a in
  (* bounds: proved — check_arc gives a < count <= |cap_| *)
  A.unsafe_set t.cap_ a (A.unsafe_get t.cap_ a - k);
  (* bounds: proved — arcs are paired, so b = partner a < count <= |cap_| *)
  A.unsafe_set t.cap_ b (A.unsafe_get t.cap_ b + k);
  if csr_valid t then begin
    (* bounds: proved — a < count <= |arc_pos|, arc_pos.(a) < count <= |csr_cap| *)
    A.unsafe_set t.csr_cap (A.unsafe_get t.arc_pos a) (A.unsafe_get t.cap_ a);
    (* bounds: proved — b < count <= |arc_pos|, arc_pos.(b) < count <= |csr_cap| *)
    A.unsafe_set t.csr_cap (A.unsafe_get t.arc_pos b) (A.unsafe_get t.cap_ b);
    (* The odd arc of the pair is the residual one, the even one the
       forward arc. *)
    relive t (a lor 1);
    recursor t (a land lnot 1)
  end

let fold_forward_arcs t ~init ~f =
  let acc = ref init in
  let a = ref 0 in
  (* poll: ok — single pass over the arc store *)
  while !a < t.count do
    acc := f !acc !a;
    a := !a + 2
  done;
  !acc

(* -- CSR finalization -------------------------------------------------- *)

(* [before t p q]: the arc at position [p] precedes the one at [q] in a
   forward run — cheaper first, ties by ascending arc id. A total order,
   so a sorted run does not depend on the order its arcs arrived in. *)
let[@inline] before t p q =
  let cp = t.csr_icost.(p) and cq = t.csr_icost.(q) in
  cp < cq || (cp = cq && t.csr_arc.(p) < t.csr_arc.(q))

(* Moves position [lo + i] down the heap [lo, lo + len) to its place, one
   level a step; [levels], the bit length of the largest heap, bounds the
   steps, so the loop is a bounded [for]. *)
let sift_down t lo len levels i =
  let i = ref i in
  for _ = 1 to levels do
    let l = (2 * !i) + 1 in
    if l < len then begin
      let c =
        if l + 1 < len && before t (lo + l) (lo + l + 1) then l + 1 else l
      in
      if before t (lo + !i) (lo + c) then begin
        swap_positions t (lo + !i) (lo + c);
        i := c
      end
      else i := len
    end
  done

(* In-place heapsort of the positions [lo, hi) by [before]. *)
let sort_run t lo hi =
  let len = hi - lo in
  let levels = ref 0 in
  for b = 0 to 62 do
    if len asr b > 0 then levels := b + 1
  done;
  for i = (len / 2) - 1 downto 0 do
    sift_down t lo len !levels i
  done;
  for k = len - 1 downto 1 do
    swap_positions t lo (lo + k);
    sift_down t lo k !levels 0
  done

(* Scattered in ascending arc id, a run is ordered by [before] iff its
   costs never decrease — a linear check. *)
let run_sorted t lo hi =
  let ok = ref true in
  for p = lo + 1 to hi - 1 do
    if t.csr_icost.(p - 1) > t.csr_icost.(p) then ok := false
  done;
  !ok

(* Degree-counted construction. One pass counts, per node, all its arcs,
   its forward arcs and its live residual arcs; prefix sums turn them into
   the three boundaries; a second pass scatters the arcs in ascending id
   behind three per-node cursors (forward, live residual, dead residual)
   and notes whether any forward run came out of cost order. Only then
   are the runs checked one by one and the unsorted ones sorted in
   place. *)
let finalize_csr t =
  if not (csr_valid t) then begin
    let n = t.num_nodes and m = t.count in
    if Array.length t.csr_offset <> n + 1 then begin
      t.csr_offset <- Array.make (n + 1) 0;
      t.csr_res <- Array.make n 0;
      t.csr_live <- Array.make n 0;
      t.csr_cursor <- Array.make n 0
    end
    else begin
      Array.fill t.csr_offset 0 (n + 1) 0;
      Array.fill t.csr_res 0 n 0;
      Array.fill t.csr_live 0 n 0
    end;
    if Array.length t.csr_arc < m then begin
      t.csr_dst <- Array.make m 0;
      t.csr_icost <- Array.make m 0;
      t.csr_cap <- Array.make m 0;
      t.csr_arc <- Array.make m 0;
      t.arc_pos <- Array.make m 0
    end;
    let off = t.csr_offset and res = t.csr_res and live = t.csr_live in
    for a = 0 to m - 1 do
      (* src of arc [a] is the dst of its partner. *)
      let s = t.dst_.(a lxor 1) in
      off.(s + 1) <- off.(s + 1) + 1;
      if a land 1 = 0 then res.(s) <- res.(s) + 1
      else if t.cap_.(a) > 0 then live.(s) <- live.(s) + 1
    done;
    for i = 1 to n do
      off.(i) <- off.(i) + off.(i - 1)
    done;
    (* One cursor per class and node: [cursor.(s)] is node [s]'s next
       forward slot, [cursor.(n + s)] its next live residual slot and
       [cursor.(2n + s)] its next dead residual slot. *)
    let cursor = Array.make (3 * n) 0 in
    for s = 0 to n - 1 do
      let r = off.(s) + res.(s) in
      cursor.(s) <- off.(s);
      cursor.(n + s) <- r;
      cursor.((2 * n) + s) <- r + live.(s);
      res.(s) <- r
    done;
    (* Set when a forward arc lands after a costlier one of its run. *)
    let unsorted = ref false in
    for a = 0 to m - 1 do
      let s = t.dst_.(a lxor 1) in
      let c =
        if a land 1 = 0 then s
        else if t.cap_.(a) > 0 then n + s
        else (2 * n) + s
      in
      let p = cursor.(c) in
      cursor.(c) <- p + 1;
      let cost = t.icost_.(a) in
      if a land 1 = 0 && p > off.(s) && cost < t.csr_icost.(p - 1) then
        unsorted := true;
      t.csr_dst.(p) <- t.dst_.(a);
      t.csr_icost.(p) <- cost;
      t.csr_cap.(p) <- t.cap_.(a);
      t.csr_arc.(p) <- a;
      t.arc_pos.(a) <- p
    done;
    (* The live cursors stopped at the live runs' ends. *)
    Array.blit cursor n live 0 n;
    if !unsorted then
      for s = 0 to n - 1 do
        if not (run_sorted t off.(s) res.(s)) then sort_run t off.(s) res.(s)
      done;
    rescan_cursors t;
    t.csr_count <- m
  end

let[@inline] check_pos t p =
  assert (csr_valid t);
  assert (p >= 0 && p < t.count)

let[@inline] out_begin t n =
  assert (csr_valid t);
  assert (n >= 0 && n < t.num_nodes);
  (* bounds: proved — csr_valid gives |csr_offset| = num_nodes + 1 > n *)
  A.unsafe_get t.csr_offset n

let[@inline] out_end t n =
  assert (csr_valid t);
  assert (n >= 0 && n < t.num_nodes);
  (* bounds: proved — csr_valid gives |csr_offset| = num_nodes + 1 > n + 1 - 1 *)
  A.unsafe_get t.csr_offset (n + 1)

let[@inline] res_begin t n =
  assert (csr_valid t);
  assert (n >= 0 && n < t.num_nodes);
  (* bounds: proved — csr_valid gives |csr_res| = num_nodes > n *)
  A.unsafe_get t.csr_res n

let[@inline] live_end t n =
  assert (csr_valid t);
  assert (n >= 0 && n < t.num_nodes);
  (* bounds: proved — csr_valid gives |csr_live| = num_nodes > n *)
  A.unsafe_get t.csr_live n

let forward_cursor t n =
  assert (csr_valid t);
  assert (n >= 0 && n < t.num_nodes);
  (* bounds: proved — csr_valid gives |csr_cursor| = num_nodes > n *)
  A.unsafe_get t.csr_cursor n

let[@inline] pos_dst t p =
  check_pos t p;
  (* bounds: proved — check_pos gives p < count <= |csr_dst| *)
  A.unsafe_get t.csr_dst p

let[@inline] pos_icost t p =
  check_pos t p;
  (* bounds: proved — check_pos gives p < count <= |csr_icost| *)
  A.unsafe_get t.csr_icost p

let[@inline] pos_residual_capacity t p =
  check_pos t p;
  (* bounds: proved — check_pos gives p < count <= |csr_cap| *)
  A.unsafe_get t.csr_cap p

let[@inline] pos_arc t p =
  check_pos t p;
  (* bounds: proved — check_pos gives p < count <= |csr_arc| *)
  A.unsafe_get t.csr_arc p

let arc_position t a =
  check_arc t a;
  assert (csr_valid t);
  (* bounds: proved — check_arc gives a < count <= |arc_pos| *)
  A.unsafe_get t.arc_pos a

(* Raw CSR slices for the stage-4 licensed kernels: one validity assert at
   fetch time, then the caller indexes positions of [out_begin, out_end)
   ranges directly, each site under its own @bounds licence. The slices
   stay current across [push]/[reset_flow] (in-place updates) and are
   invalidated — like every CSR accessor — by [add_arc]. *)

(* bounds: proved — returns the whole slice; positions < arc_count are in bounds while csr_valid *)
let[@inline] unsafe_csr_dst t =
  assert (csr_valid t);
  t.csr_dst

(* bounds: proved — returns the whole slice; positions < arc_count are in bounds while csr_valid *)
let[@inline] unsafe_csr_icost t =
  assert (csr_valid t);
  t.csr_icost

(* bounds: proved — returns the whole slice; positions < arc_count are in bounds while csr_valid *)
let[@inline] unsafe_csr_cap t =
  assert (csr_valid t);
  t.csr_cap

(* bounds: proved — returns the whole slice; positions < arc_count are in bounds while csr_valid *)
let[@inline] unsafe_csr_arc t =
  assert (csr_valid t);
  t.csr_arc

(* bounds: proved — returns the whole per-node array; nodes < node_count are in bounds while csr_valid *)
let[@inline] unsafe_csr_res t =
  assert (csr_valid t);
  t.csr_res

(* bounds: proved — returns the whole per-node array; nodes < node_count are in bounds while csr_valid *)
let[@inline] unsafe_csr_live t =
  assert (csr_valid t);
  t.csr_live

(* bounds: proved — returns the whole per-node array; nodes < node_count are in bounds while csr_valid *)
let[@inline] unsafe_csr_cursor t =
  assert (csr_valid t);
  t.csr_cursor

let reset_flow t =
  Array.blit t.initial_cap 0 t.cap_ 0 t.count;
  if csr_valid t then begin
    (* Residual arcs are created with capacity 0, so every live run
       empties; the positions stay where they are. *)
    Array.blit t.csr_res 0 t.csr_live 0 t.num_nodes;
    for p = 0 to t.count - 1 do
      (* bounds: proved — p < count <= |csr_cap| = |csr_arc|, csr_arc.(p) < count <= |cap_| *)
      A.unsafe_set t.csr_cap p (A.unsafe_get t.cap_ (A.unsafe_get t.csr_arc p))
    done;
    rescan_cursors t
  end

let excess t n =
  assert (n >= 0 && n < t.num_nodes);
  fold_forward_arcs t ~init:0 ~f:(fun acc a ->
      let fl = flow t a in
      if t.dst_.(a) = n then acc + fl
      else if t.dst_.(partner a) = n then acc - fl
      else acc)
