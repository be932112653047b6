module Point = Geacc_index.Point
module Ranked = Geacc_index.Ranked

(* Per-querying-node caches. A source can be shared by the instance values
   [with_entities] re-wraps, whose querying side may grow, so the slots
   grow on demand; an instance never asks for a node beyond its own side. *)
type 'a slots = { mutable cells : 'a option array }

let slot s node = if node < Array.length s.cells then s.cells.(node) else None

let set_slot s node x =
  let n = Array.length s.cells in
  if node >= n then begin
    let g = Array.make (Stdlib.max (node + 1) (2 * n)) None in
    Array.blit s.cells 0 g 0 n;
    s.cells <- g
  end;
  s.cells.(node) <- Some x

(* Lazily-built neighbour source for one direction of queries (e.g. events
   querying users): one ranked list per querying node, opened on its first
   query. With a distance profile each list is a scan of the targets'
   attribute vectors, gathered into one array when the source is built;
   otherwise it is a scan of [sim]. An event's list is keyed by [-. sim]
   and cut at 0, so it holds exactly the users of positive similarity in
   descending similarity, then id, even where the profile is flat
   (distinct distances, one similarity): the sort-all-pairs greedy's order
   restricted to the event, which Greedy-GEACC's one-sided walk relies on.
   A user's list with a distance profile is keyed by the distance and cut
   at the profile's cutoff, the order the serving layer's canonical
   arrangement is defined by; it ranks equal similarities at distinct
   distances by distance, and may end in a tail whose similarity
   underflowed to 0. Either depends only on the attribute vectors of both
   sides. *)
type source = {
  index : (Similarity.profile * Point.t array) option;
  lists : Ranked.t slots;
}

type t = {
  events : Entity.t array;
  users : Entity.t array;
  conflicts : Conflict.t;
  similarity : Similarity.t;
  dim : int;
  mutable event_queries : source option;  (* events asking for users *)
  mutable user_queries : source option;   (* users asking for events *)
}

let create ~sim ~events ~users ~conflicts () =
  let dim =
    if Array.length events > 0 then Entity.dim events.(0)
    else if Array.length users > 0 then Entity.dim users.(0)
    else invalid_arg "Instance.create: no entities"
  in
  let check_side name side =
    Array.iteri
      (fun i (e : Entity.t) ->
        if e.Entity.id <> i then
          invalid_arg
            (Printf.sprintf "Instance.create: %s id %d at position %d" name
               e.Entity.id i);
        if Entity.dim e <> dim then
          invalid_arg
            (Printf.sprintf "Instance.create: %s %d has dimension %d, expected %d"
               name i (Entity.dim e) dim))
      side
  in
  check_side "event" events;
  check_side "user" users;
  if Conflict.n_events conflicts <> Array.length events then
    invalid_arg "Instance.create: conflict set ranges over a different event count";
  {
    events;
    users;
    conflicts;
    similarity = sim;
    dim;
    event_queries = None;
    user_queries = None;
  }

let n_events t = Array.length t.events
let n_users t = Array.length t.users
let event t v = t.events.(v)
let user t u = t.users.(u)
let events t = t.events
let users t = t.users
let conflicts t = t.conflicts
let similarity t = t.similarity
let dim t = t.dim

(* [sim.nan]/[sim.huge] corrupt similarity values at this one chokepoint
   (matching bookkeeping, flow costs and validation all read through here),
   so the audit layer and the fallback harness can be shown catching a
   poisoned objective mid-solve. One flag load when no plan is active. *)
let injected_sim s =
  if Geacc_robust.Fault.fire "sim.nan" then Float.nan
  else if Geacc_robust.Fault.fire "sim.huge" then 1e300
  else s

let sim t ~v ~u =
  let s =
    Similarity.eval t.similarity t.events.(v).Entity.attrs
      t.users.(u).Entity.attrs
  in
  if Geacc_robust.Fault.active () then injected_sim s else s

let[@inline] event_capacity t v = t.events.(v).Entity.capacity
let[@inline] user_capacity t u = t.users.(u).Entity.capacity

let sum_capacity side = Array.fold_left (fun acc e -> acc + e.Entity.capacity) 0 side
let max_capacity side = Array.fold_left (fun acc e -> Stdlib.max acc e.Entity.capacity) 0 side

let sum_event_capacity t = sum_capacity t.events
let sum_user_capacity t = sum_capacity t.users
let max_event_capacity t = max_capacity t.events
let max_user_capacity t = max_capacity t.users

let build_source t ~targets =
  let n_queriers =
    if targets == t.users then Array.length t.events else Array.length t.users
  in
  let index =
    Option.map
      (fun profile ->
        (profile, Array.map (fun (e : Entity.t) -> e.Entity.attrs) targets))
      (Similarity.dist_profile t.similarity)
  in
  { index; lists = { cells = Array.make n_queriers None } }

let event_source t =
  match t.event_queries with
  | Some s -> s
  | None ->
      let s = build_source t ~targets:t.users in
      t.event_queries <- Some s;
      s

let user_source t =
  match t.user_queries with
  | Some s -> s
  | None ->
      let s = build_source t ~targets:t.events in
      t.user_queries <- Some s;
      s

let open_list t source ~query_is_event ~node =
  match source.index with
  | Some (profile, points) ->
      let query =
        if query_is_event then t.events.(node).Entity.attrs
        else t.users.(node).Entity.attrs
      in
      let n = Array.length points in
      if query_is_event then
        let sim_of_dist = profile.Similarity.sim_of_dist in
        Ranked.scan ~n ~cutoff:0. (fun i ->
            -.sim_of_dist (Point.dist query points.(i)))
      else
        Ranked.scan ~n ~cutoff:profile.Similarity.cutoff (fun i ->
            Point.dist query points.(i))
  | None ->
      let n = if query_is_event then n_users t else n_events t in
      Ranked.scan ~n ~cutoff:0. (fun j ->
          -.(if query_is_event then sim t ~v:node ~u:j else sim t ~v:j ~u:node))

let[@inline] list_of t source ~query_is_event ~node =
  match slot source.lists node with
  | Some l -> l
  | None ->
      let l = open_list t source ~query_is_event ~node in
      set_slot source.lists node l;
      l

(* The rank read every neighbour query goes through: the target id at
   [rank], or -1 past the list's end, and the similarity at a rank that
   exists. Neither allocates once the list is open (bar the similarity a
   distance profile computes for a user's list). *)
let[@inline] rank_id list rank =
  if Ranked.reach list rank then Ranked.id list rank else -1

let[@inline] rank_sim source ~query_is_event list rank =
  match source.index with
  | Some (profile, _) when not query_is_event ->
      profile.Similarity.sim_of_dist (Ranked.key list rank)
  | _ -> -.Ranked.key list rank

let neighbor t source ~query_is_event ~node ~rank =
  assert (rank >= 1);
  let list = list_of t source ~query_is_event ~node in
  let id = rank_id list rank in
  if id < 0 then None
  else
    let s = rank_sim source ~query_is_event list rank in
    (* A distance-keyed list's similarity is monotone: once it underflows
       to 0, so do all later ranks. *)
    if s > 0. then Some (id, s) else None

let event_neighbor t ~v ~rank =
  neighbor t (event_source t) ~query_is_event:true ~node:v ~rank

let user_neighbor t ~u ~rank =
  neighbor t (user_source t) ~query_is_event:false ~node:u ~rank

let[@inline] event_user_at t ~v ~rank =
  rank_id (list_of t (event_source t) ~query_is_event:true ~node:v) rank

let[@inline] event_sim_at t ~v ~rank =
  let source = event_source t in
  rank_sim source ~query_is_event:true
    (list_of t source ~query_is_event:true ~node:v)
    rank

let prepare_event_queries t = ignore (event_source t : source)

(* Similarity-pruned candidate set of one event, for the sparse network
   builder: every user with [sim > 0] (and [>= min_sim]). It runs a scan
   keyed by distance over the users' vectors directly, so it reads no
   neighbour source and writes no cache.

   The indexed path recovers similarities through the distance profile,
   whose contract ([sim_of_dist (dist lv lu) = eval lv lu]) makes them
   bitwise-identical to [sim t ~v ~u]; monotonicity lets the collection
   stop at the first rank whose similarity falls below the gate, and
   keeps the scan's order, descending similarity — the cost-ascending
   order [Graph.finalize_csr] lays each event's arcs out in. The scanned
   path yields ascending user id. *)
let candidate_users t ~v ~min_sim =
  match Similarity.dist_profile t.similarity with
  | Some { Similarity.sim_of_dist; cutoff } ->
      let q = t.events.(v).Entity.attrs in
      let ranked =
        Ranked.scan ~n:(n_users t) ~cutoff (fun u ->
            Point.dist q t.users.(u).Entity.attrs)
      in
      let passes rank =
        Ranked.reach ranked rank
        &&
        let s = sim_of_dist (Ranked.key ranked rank) in
        s > 0. && s >= min_sim
      in
      (* poll: ok — stops at the first rank below the gate; bounded by the candidate count *)
      let rec count k = if passes (k + 1) then count (k + 1) else k in
      Array.init (count 0) (fun k ->
          (Ranked.id ranked (k + 1), sim_of_dist (Ranked.key ranked (k + 1))))
  | None ->
      let n = n_users t in
      let acc = ref [] in
      for u = n - 1 downto 0 do
        let s = sim t ~v ~u in
        if s > 0. && s >= min_sim then acc := (u, s) :: !acc
      done;
      Array.of_list !acc

let side_work = function
  | None -> 0
  | Some source ->
      Array.fold_left
        (fun acc l -> if Option.is_some l then acc + 1 else acc)
        0 source.lists.cells

let neighbor_work t = (side_work t.event_queries, side_work t.user_queries)

let with_backend t (_ : Geacc_index.Nn_backend.t) =
  { t with event_queries = None; user_queries = None }

(* [old] and [side] hold the same attribute vectors (physically) on
   [old]'s ids; appended entities are validated like [create] does. *)
let same_prefix ~name ~dim old side =
  let n = Array.length old in
  if Array.length side < n then
    invalid_arg (Printf.sprintf "Instance.with_entities: the %s side shrank" name);
  for i = n to Array.length side - 1 do
    let e = side.(i) in
    if e.Entity.id <> i || Entity.dim e <> dim then
      invalid_arg
        (Printf.sprintf "Instance.with_entities: bad appended %s %d" name i)
  done;
  (* poll: ok — one pointer comparison per existing entity *)
  let rec kept i =
    i >= n || (side.(i).Entity.attrs == old.(i).Entity.attrs && kept (i + 1))
  in
  (Array.length side = n, kept 0)

(* A source stays valid while its targets keep their attribute vectors and
   count, and its querying side keeps its vectors (it may grow: the slots
   extend on demand). *)
let with_entities t ~events ~users ~conflicts =
  if Conflict.n_events conflicts <> Array.length events then
    invalid_arg
      "Instance.with_entities: conflict set ranges over a different event count";
  let ev_same_count, ev_kept = same_prefix ~name:"event" ~dim:t.dim t.events events
  and us_same_count, us_kept = same_prefix ~name:"user" ~dim:t.dim t.users users in
  let keep ~targets_same ~queriers_kept source =
    if targets_same && queriers_kept then source else None
  in
  {
    t with
    events;
    users;
    conflicts;
    user_queries =
      keep ~targets_same:(ev_same_count && ev_kept) ~queriers_kept:us_kept
        t.user_queries;
    event_queries =
      keep ~targets_same:(us_same_count && us_kept) ~queriers_kept:ev_kept
        t.event_queries;
  }

let pp_summary ppf t =
  Format.fprintf ppf
    "|V|=%d |U|=%d d=%d sum(c_v)=%d sum(c_u)=%d max(c_u)=%d %a sim=%a"
    (n_events t) (n_users t) t.dim (sum_event_capacity t)
    (sum_user_capacity t) (max_user_capacity t) Conflict.pp t.conflicts
    Similarity.pp t.similarity
