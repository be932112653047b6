type partition = {
  reference : Point.t;
  dists : float array;  (* ascending distance to the reference *)
  ids : int array;      (* parallel point ids *)
}

type t = {
  points : Point.t array;
  partitions : partition array;
}

(* Deterministic farthest-point sampling: start from point 0, repeatedly
   take the point farthest from the chosen set. Gives well-spread
   references without randomness. *)
let choose_references points k =
  let n = Array.length points in
  let refs = Array.make k 0 in
  let closest = Array.make n infinity in
  let update c =
    for i = 0 to n - 1 do
      let d = Point.dist2 points.(i) points.(c) in
      if d < closest.(i) then closest.(i) <- d
    done
  in
  refs.(0) <- 0;
  update 0;
  for r = 1 to k - 1 do
    let best = ref 0 in
    for i = 1 to n - 1 do
      if closest.(i) > closest.(!best) then best := i
    done;
    refs.(r) <- !best;
    update !best
  done;
  refs

let build ?n_references points =
  let n = Array.length points in
  if n = 0 then { points; partitions = [||] }
  else begin
    let k =
      match n_references with
      | Some k ->
          if k < 1 then invalid_arg "I_distance.build: n_references < 1";
          Stdlib.min k n
      | None ->
          Stdlib.max 1 (Stdlib.min 64 (int_of_float (sqrt (float_of_int n))))
    in
    let ref_ids = choose_references points k in
    let references = Array.map (fun i -> points.(i)) ref_ids in
    (* Assign each point to its nearest reference (ties to the first). *)
    let members = Array.make k [] in
    Array.iteri
      (fun i p ->
        let best = ref 0 and best_d = ref infinity in
        Array.iteri
          (fun r reference ->
            let d = Point.dist2 p reference in
            if d < !best_d then begin
              best_d := d;
              best := r
            end)
          references;
        members.(!best) <- (sqrt !best_d, i) :: members.(!best))
      points;
    let partitions =
      Array.map2
        (fun reference member_list ->
          let sorted =
            List.sort
              (fun (d1, i1) (d2, i2) ->
                let c = Float.compare d1 d2 in
                if c <> 0 then c else Int.compare i1 i2)
              member_list
          in
          {
            reference;
            dists = Array.of_list (List.map fst sorted);
            ids = Array.of_list (List.map snd sorted);
          })
        references members
    in
    { points; partitions }
  end

let size t = Array.length t.points
let n_references t = Array.length t.partitions

module Heap = Geacc_pqueue.Binary_heap

type candidate = { dist : float; id : int }

let candidate_cmp c1 c2 =
  let c = Float.compare c1.dist c2.dist in
  if c <> 0 then c else Int.compare c1.id c2.id

(* Per-partition annulus cursor: [left, right) is the explored range of the
   partition's distance-sorted array around the query's key dq. *)
type annulus = { dq : float; mutable left : int; mutable right : int }

(* The search behind one query's memo. *)
type search = {
  index : t;
  query : Point.t;
  max_dist : float;
  annuli : annulus array;
  candidates : candidate Heap.t;
  mutable radius : float;
  mutable evaluations : int;
}

type stream = { search : search; ranked : Ranked.t }

(* Positions with |dist - dq| <= r, i.e. dist in [dq - r, dq + r]. *)
let lowest_in_range dists target =
  (* Smallest index with dists.(i) >= target. *)
  let lo = ref 0 and hi = ref (Array.length dists) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if dists.(mid) >= target then hi := mid else lo := mid + 1
  done;
  !lo

let evaluate s id =
  s.evaluations <- s.evaluations + 1;
  Point.dist s.query s.index.points.(id)

(* Pull every not-yet-explored entry whose annulus key falls within the
   current radius into the candidate heap. *)
let expand s =
  Array.iteri
    (fun r a ->
      let p = s.index.partitions.(r) in
      let n = Array.length p.dists in
      while a.left > 0 && p.dists.(a.left - 1) >= a.dq -. s.radius do
        a.left <- a.left - 1;
        let d = evaluate s p.ids.(a.left) in
        if d < s.max_dist then Heap.push s.candidates { dist = d; id = p.ids.(a.left) }
      done;
      while a.right < n && p.dists.(a.right) <= a.dq +. s.radius do
        let d = evaluate s p.ids.(a.right) in
        if d < s.max_dist then Heap.push s.candidates { dist = d; id = p.ids.(a.right) };
        a.right <- a.right + 1
      done)
    s.annuli

let fully_explored s =
  Array.for_all
    (fun (a : annulus) -> a.left = 0)
    s.annuli
  && Array.for_all2
       (fun (a : annulus) p -> a.right = Array.length p.dists)
       s.annuli s.index.partitions

(* A sensible first radius: the exact distance of some nearby probe point
   (one per partition boundary), so the first expansion is guaranteed to
   capture at least one emittable candidate. *)
let initial_radius s =
  let best = ref infinity in
  Array.iteri
    (fun r a ->
      let p = s.index.partitions.(r) in
      let n = Array.length p.dists in
      let probe pos =
        if pos >= 0 && pos < n then begin
          let d = evaluate s p.ids.(pos) in
          if d < !best then best := d
        end
      in
      probe (a.left - 1);
      probe a.right)
    s.annuli;
  if Float.equal !best infinity then 0. else !best

let produce s ranked =
  if Float.equal s.radius 0. && Heap.is_empty s.candidates then begin
    let r0 = initial_radius s in
    s.radius <- Stdlib.max r0 1e-12;
    expand s
  end;
  let rec emit () =
    match Heap.peek s.candidates with
    | Some { dist; id } when dist <= s.radius || fully_explored s ->
        let (_ : candidate) = Heap.pop_exn s.candidates in
        Ranked.push ranked id dist;
        true
    | Some _ | None ->
        if fully_explored s then false
        else if Heap.is_empty s.candidates && s.radius >= s.max_dist then
          (* Every unexplored point is farther than the radius, hence past
             the cutoff: nothing left to emit. *)
          false
        else begin
          s.radius <- s.radius *. 2.;
          expand s;
          emit ()
        end
  in
  emit ()

let stream t ~query ~max_dist =
  let annuli =
    Array.map
      (fun p ->
        let dq = Point.dist query p.reference in
        let start = lowest_in_range p.dists dq in
        { dq; left = start; right = start })
      t.partitions
  in
  let search =
    {
      index = t;
      query;
      max_dist;
      annuli;
      candidates = Heap.create ~cmp:candidate_cmp ();
      radius = 0.;
      evaluations = 0;
    }
  in
  { search; ranked = Ranked.memo (fun ranked _ -> produce search ranked) }

let ranked s = s.ranked
let evaluations s = s.search.evaluations
