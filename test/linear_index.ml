(* Exact nearest-neighbour queries by linear scan: the tests' independent
   oracle for the [Ranked] scans that serve every neighbour query. A query
   sorts every point, O(n log n), with no preprocessing beyond storing the
   points (the array is not copied: callers must not mutate it). Ties in
   distance are broken by point index, so results are deterministic. *)

module Point = Geacc_index.Point

type t = { points : Point.t array }

let create points = { points }

let size t = Array.length t.points
let point t i = t.points.(i)

let by_dist_then_index (i1, d1) (i2, d2) =
  let c = Float.compare d1 d2 in
  if c <> 0 then c else Int.compare i1 i2

let all_sorted t q =
  let pairs = Array.mapi (fun i p -> (i, Point.dist q p)) t.points in
  Array.sort by_dist_then_index pairs;
  pairs

(* Up to [k] (index, distance) pairs in ascending (distance, index)
   order. *)
let nearest t q ~k =
  assert (k >= 0);
  let pairs = all_sorted t q in
  if k >= Array.length pairs then pairs else Array.sub pairs 0 k

(* Like [nearest], without results at distance [>= max_dist]. *)
let nearest_within t q ~k ~max_dist =
  let pairs = nearest t q ~k in
  let keep = ref (Array.length pairs) in
  (* Sorted ascending: find the cut point. *)
  (try
     Array.iteri
       (fun i (_, d) ->
         if d >= max_dist then begin
           keep := i;
           raise Exit
         end)
       pairs
   with Exit -> ());
  Array.sub pairs 0 !keep

(* The [j]-th nearest point (1-based), [None] when [j > size t]. *)
let nth_nearest t q j =
  assert (j >= 1);
  if j > Array.length t.points then None else Some (all_sorted t q).(j - 1)
