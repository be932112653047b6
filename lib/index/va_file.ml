type t = {
  points : Point.t array;
  dim : int;
  cells : int;                 (* cells per dimension = 2^bits *)
  boundaries : float array array;  (* per dim, [cells + 1] cell edges *)
  codes : Bytes.t;             (* n * dim cell codes, one byte each *)
}

let code t p j = Char.code (Bytes.get t.codes ((p * t.dim) + j))

let build ?(bits_per_dim = 4) points =
  if bits_per_dim < 1 || bits_per_dim > 8 then
    invalid_arg "Va_file.build: bits_per_dim must be in [1, 8]";
  let n = Array.length points in
  let dim = if n = 0 then 1 else Array.length points.(0) in
  let cells = 1 lsl bits_per_dim in
  let boundaries =
    Array.init dim (fun j ->
        let lo = ref infinity and hi = ref neg_infinity in
        Array.iter
          (fun p ->
            if p.(j) < !lo then lo := p.(j);
            if p.(j) > !hi then hi := p.(j))
          points;
        if n = 0 then (lo := 0.; hi := 1.);
        (* Degenerate dimension: a single-cell-wide box. *)
        if !hi <= !lo then hi := !lo +. 1.;
        let width = (!hi -. !lo) /. float_of_int cells in
        Array.init (cells + 1) (fun c -> !lo +. (float_of_int c *. width)))
  in
  let codes = Bytes.create (Stdlib.max 1 (n * dim)) in
  let cell_of j x =
    let b = boundaries.(j) in
    let lo = b.(0) and hi = b.(cells) in
    if x <= lo then 0
    else if x >= hi then cells - 1
    else
      let c = int_of_float ((x -. lo) /. (hi -. lo) *. float_of_int cells) in
      Stdlib.min (cells - 1) (Stdlib.max 0 c)
  in
  Array.iteri
    (fun p point ->
      for j = 0 to dim - 1 do
        Bytes.set codes ((p * dim) + j) (Char.chr (cell_of j point.(j)))
      done)
    points;
  { points; dim; cells; boundaries; codes }

let size t = Array.length t.points
let approximation_bytes t = Array.length t.points * t.dim

module Heap = Geacc_pqueue.Binary_heap

type candidate = { dist : float; id : int }

let candidate_cmp c1 c2 =
  let c = Float.compare c1.dist c2.dist in
  if c <> 0 then c else Int.compare c1.id c2.id

(* The filter behind one query's memo: candidates in lower-bound order,
   refined into a heap until the heap minimum is provably next. *)
type search = {
  index : t;
  max_dist : float;
  by_lower_bound : int array;   (* point ids in ascending (lb, id) order *)
  lower_bounds : float array;   (* lb per position of [by_lower_bound] *)
  exact : candidate Heap.t;     (* refined but not yet emitted *)
  mutable cursor : int;         (* next unrefined position *)
  mutable refinements : int;
  query : Point.t;
}

type stream = { search : search; ranked : Ranked.t }

(* Per-dimension table of squared lower-bound contributions per cell. *)
let lb_tables t query =
  Array.init t.dim (fun j ->
      let b = t.boundaries.(j) in
      Array.init t.cells (fun c ->
          let lo = b.(c) and hi = b.(c + 1) in
          let q = query.(j) in
          if q < lo then (lo -. q) *. (lo -. q)
          else if q > hi then (q -. hi) *. (q -. hi)
          else 0.))

(* Push one more neighbour onto [ranked], or return false when the search
   is dry. Invariant: everything still unrefined has lower bound >= any
   refined candidate pulled so far only once the pull loop below has run,
   so the heap minimum is the true next neighbour. *)
let produce s ranked =
  let n = Array.length s.by_lower_bound in
  let continue = ref true in
  while
    !continue && s.cursor < n
    && (Heap.is_empty s.exact
       ||
       match Heap.peek_exn s.exact with
       | { dist; _ } -> s.lower_bounds.(s.cursor) <= dist)
  do
    if s.lower_bounds.(s.cursor) >= s.max_dist then begin
      (* All remaining lower bounds are at least the cutoff. *)
      s.cursor <- n;
      continue := false
    end
    else begin
      let id = s.by_lower_bound.(s.cursor) in
      let d = Point.dist s.query s.index.points.(id) in
      s.refinements <- s.refinements + 1;
      if d < s.max_dist then Heap.push s.exact { dist = d; id };
      s.cursor <- s.cursor + 1
    end
  done;
  match Heap.pop s.exact with
  | Some { dist; id } ->
      Ranked.push ranked id dist;
      true
  | None -> false

let stream t ~query ~max_dist =
  let n = size t in
  let tables = lb_tables t query in
  let lb = Array.make n 0. in
  for p = 0 to n - 1 do
    let acc = ref 0. in
    for j = 0 to t.dim - 1 do
      acc := !acc +. tables.(j).(code t p j)
    done;
    lb.(p) <- sqrt !acc
  done;
  let by_lower_bound = Array.init n (fun p -> p) in
  Array.sort
    (fun p1 p2 ->
      let c = Float.compare lb.(p1) lb.(p2) in
      if c <> 0 then c else Int.compare p1 p2)
    by_lower_bound;
  let lower_bounds = Array.map (fun p -> lb.(p)) by_lower_bound in
  let search =
    {
      index = t;
      max_dist;
      by_lower_bound;
      lower_bounds;
      exact = Heap.create ~cmp:candidate_cmp ();
      cursor = 0;
      refinements = 0;
      query;
    }
  in
  { search; ranked = Ranked.memo (fun ranked _ -> produce search ranked) }

let ranked s = s.ranked
let refinements s = s.search.refinements
