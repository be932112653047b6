module Pool = Geacc_par.Pool

(* The box-dimension walks index [lo]/[hi] through [Geacc_unsafe] under
   stage-4 licences: the equal-length asserts are the facts the @bounds
   proofs rest on. Point reads stay checked — their lengths are
   data-dependent. See DESIGN.md §13. *)
module A = Geacc_unsafe

type node = {
  lo : Point.t;
  hi : Point.t;
  kind : kind;
}

and kind =
  | Leaf of int array
  | Inner of node * node

type t = { points : Point.t array; root : node option }

let widest_dimension lo hi =
  assert (Array.length hi = Array.length lo);
  let best = ref 0 and spread = ref (hi.(0) -. lo.(0)) in
  for k = 1 to Array.length lo - 1 do
    (* bounds: proved — k < |lo| = |hi| (asserted above) *)
    let s = A.unsafe_get hi k -. A.unsafe_get lo k in
    if s > !spread then begin
      spread := s;
      best := k
    end
  done;
  !best

(* One comparator shared by the sequential build and the parallel
   skeleton, so the median split is bit-for-bit the same on both paths. *)
let sort_along points dim idxs =
  Array.sort (* construction phase — alloc: ok *)
    (fun i j ->
      let c = Float.compare points.(i).(dim) points.(j).(dim) in
      if c <> 0 then c else Int.compare i j)
    idxs

let rec build_node points leaf_size idxs =
  let d = Array.length points.(idxs.(0)) in
  (* Construction phase: per-node boxes are the point. alloc: ok *)
  let lo = Array.make d 0. and hi = Array.make d 0. in
  Point.bounding_box points idxs ~lo ~hi;
  (* Construction phase: one node per subtree is the point. alloc: ok *)
  if Array.length idxs <= leaf_size then { lo; hi; kind = Leaf idxs }
  else begin
    let dim = widest_dimension lo hi in
    sort_along points dim idxs;
    let mid = Array.length idxs / 2 in
    (* Construction phase: index slices per subtree. alloc: ok *)
    let left = build_node points leaf_size (Array.sub idxs 0 mid) in
    let right =
      build_node points leaf_size
        (Array.sub idxs mid (Array.length idxs - mid))
    in
    (* Construction phase: one node per subtree is the point. alloc: ok *)
    { lo; hi; kind = Inner (left, right) }
  end

(* Parallel bulk build: the top of the tree (the "skeleton") is split
   sequentially with the exact median-split of [build_node]; once a subtree
   falls below the fork cutoff it becomes a task, and the tasks — each an
   ordinary sequential [build_node] over its own index slice — run across
   the domain pool. Because every node's box, split dimension and median
   are pure functions of its index slice, the finished tree is structurally
   identical for every job count. *)
type skeleton =
  | S_task of int
  | S_inner of { lo : Point.t; hi : Point.t; left : skeleton; right : skeleton }

let build_root_parallel points leaf_size idxs ~jobs =
  let tasks = ref [] and n_tasks = ref 0 in
  (* Fork subtree tasks above this size; below it, forking overhead beats
     the work. The cutoff does not influence the resulting tree. *)
  let cutoff = Stdlib.max leaf_size 512 in
  let rec skeleton idxs =
    if Array.length idxs <= cutoff then begin
      let slot = !n_tasks in
      incr n_tasks;
      (* Construction phase: task list cell per fork. alloc: ok *)
      tasks := (slot, idxs) :: !tasks;
      S_task slot (* one leaf marker per fork — alloc: ok *)
    end
    else begin
      let d = Array.length points.(idxs.(0)) in
      (* Construction phase: per-node boxes are the point. alloc: ok *)
      let lo = Array.make d 0. and hi = Array.make d 0. in
      Point.bounding_box points idxs ~lo ~hi;
      let dim = widest_dimension lo hi in
      sort_along points dim idxs;
      let mid = Array.length idxs / 2 in
      (* Construction phase: index slices per subtree. alloc: ok *)
      let left = skeleton (Array.sub idxs 0 mid) in
      let right = skeleton (Array.sub idxs mid (Array.length idxs - mid)) in
      (* Construction phase: one skeleton node per fork point. alloc: ok *)
      S_inner { lo; hi; left; right }
    end
  in
  let sk = skeleton idxs in
  let slices = Array.make !n_tasks [||] in
  List.iter (fun (slot, slice) -> slices.(slot) <- slice) !tasks;
  let built = Array.make !n_tasks None in
  Pool.parallel_for ~jobs ~n:!n_tasks (fun t ->
      (* One subtree per task is the work itself. alloc: ok *)
      built.(t) <- Some (build_node points leaf_size slices.(t)));
  let rec fill = function
    | S_task t ->
        (* parallel_for filled every slot before returning — lint: ok *)
        (match built.(t) with Some n -> n | None -> assert false)
    | S_inner { lo; hi; left; right } ->
        (* Construction phase: one node per fork point. alloc: ok *)
        { lo; hi; kind = Inner (fill left, fill right) }
  in
  fill sk

let build ?(leaf_size = 16) ?jobs points =
  assert (leaf_size >= 1);
  if Array.length points = 0 then { points; root = None }
  else begin
    let d = Array.length points.(0) in
    Array.iter (fun p -> assert (Array.length p = d)) points;
    let n = Array.length points in
    let idxs = Array.init n (fun i -> i) in
    let jobs = Pool.resolve_jobs ?jobs () in
    let root =
      (* Below ~2 fork cutoffs there is nothing to fork. *)
      if jobs = 1 || n <= 2 * Stdlib.max leaf_size 512 then
        build_node points leaf_size idxs
      else build_root_parallel points leaf_size idxs ~jobs
    in
    { points; root = Some root }
  end

(* Structural fingerprint for the determinism tests: hex floats and leaf
   index lists make byte-identical claims checkable as string equality. *)
let dump t =
  let b = Buffer.create 1024 in
  let box p =
    Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h;" x)) p
  in
  let rec node n =
    Buffer.add_char b '[';
    box n.lo;
    Buffer.add_char b '|';
    box n.hi;
    Buffer.add_char b ']';
    match n.kind with
    | Leaf idxs ->
        Buffer.add_string b "L(";
        (* Debug/test-only rendering, never on a solver path. alloc: ok *)
        Array.iter (fun i -> Buffer.add_string b (Printf.sprintf "%d," i)) idxs;
        Buffer.add_char b ')'
    | Inner (l, r) ->
        Buffer.add_string b "I(";
        node l;
        Buffer.add_char b ',';
        node r;
        Buffer.add_char b ')'
  in
  (match t.root with None -> Buffer.add_string b "empty" | Some r -> node r);
  Buffer.contents b

let size t = Array.length t.points
let point t i = t.points.(i)

(* Frontier entries are keyed by squared distance. At equal keys, nodes come
   before points (so every point at that distance has been enqueued before
   any is returned) and points tie-break by index — this matches
   Linear_index's (distance, index) order exactly. *)
type entry = { key : float; payload : payload }
and payload = Node of node | Pt of int

let entry_cmp e1 e2 =
  let c = Float.compare e1.key e2.key in
  if c <> 0 then c
  else
    match (e1.payload, e2.payload) with
    | Node _, Pt _ -> -1
    | Pt _, Node _ -> 1
    | Node _, Node _ -> 0
    | Pt i, Pt j -> Int.compare i j

module Heap = Geacc_pqueue.Binary_heap

type cursor = {
  tree : t;
  query : Point.t;
  max_dist2 : float;
  frontier : entry Heap.t;
  mutable yielded : int;
  mutable work : int;  (* frontier operations: a proxy for search effort *)
}

let[@inline] push_node c node =
  let key = Point.min_dist2_to_box c.query ~lo:node.lo ~hi:node.hi in
  c.work <- c.work + 1;
  if key < c.max_dist2 then Heap.push c.frontier { key; payload = Node node }

(* The least square whose root reaches [max_dist]. The correctly rounded
   sqrt is monotone, so [d2 < square_limit m] iff [sqrt d2 < m] — exactly
   the cutoff a scan applies to distances — and a box whose squared
   distance reaches the limit holds no point within the cutoff. (Plain
   [m *. m] rounds, and can keep or drop a point the scan does not.) *)
let square_limit (max_dist : float) =
  if not (max_dist > 0.) then 0.
  else if Float.equal max_dist infinity then infinity
  else begin
    let x = ref (max_dist *. max_dist) in
    while sqrt !x >= max_dist do
      x := Float.pred !x
    done;
    while sqrt (Float.succ !x) < max_dist do
      x := Float.succ !x
    done;
    Float.succ !x
  end

let cursor t query ?(max_dist = infinity) () =
  let c =
    {
      tree = t;
      query;
      max_dist2 = square_limit max_dist;
      frontier = Heap.create ~cmp:entry_cmp ();
      yielded = 0;
      work = 0;
    }
  in
  (match t.root with None -> () | Some root -> push_node c root);
  c

let rec next c =
  match Heap.pop c.frontier with
  | None -> None
  | Some { key; payload } ->
      if key >= c.max_dist2 then None
      else begin
        match payload with
        | Pt i ->
            c.yielded <- c.yielded + 1;
            (* The yielded (index, distance) pair is the API. alloc: ok *)
            Some (i, sqrt key)
        | Node { kind = Inner (l, r); _ } ->
            push_node c l;
            push_node c r;
            next c
        | Node { kind = Leaf idxs; _ } ->
            c.work <- c.work + Array.length idxs;
            Array.iter (* captures the cursor — alloc: ok *)
              (fun i ->
                let d2 = Point.dist2 c.query c.tree.points.(i) in
                if d2 < c.max_dist2 then (* frontier entry — alloc: ok *)
                  Heap.push c.frontier { key = d2; payload = Pt i })
              idxs;
            next c
      end

let returned c = c.yielded
let work c = c.work

let nearest t q ~k =
  assert (k >= 0);
  let c = cursor t q () in
  let rec take acc n =
    if n = 0 then List.rev acc
    (* Materialising the k results is the point. alloc: ok *)
    else match next c with None -> List.rev acc | Some x -> take (x :: acc) (n - 1)
  in
  Array.of_list (take [] k)
