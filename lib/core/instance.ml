module Nn_backend = Geacc_index.Nn_backend

(* Lazily-built neighbour source for one direction of queries (e.g. events
   querying users). [Indexed] serves ranks from an incremental NN stream of
   the instance's index backend per querying node; [Scanned] caches a full
   sorted scan per node (fallback for similarities that are not monotone in
   distance). *)
type source =
  | Indexed of {
      profile : Similarity.profile;
      index : Nn_backend.index;
      streams : Nn_backend.stream option array;  (* per querying node *)
    }
  | Scanned of { sorted : (int * float) array option array }

type t = {
  events : Entity.t array;
  users : Entity.t array;
  conflicts : Conflict.t;
  similarity : Similarity.t;
  backend : Nn_backend.t;
  dim : int;
  mutable event_queries : source option;  (* events asking for users *)
  mutable user_queries : source option;   (* users asking for events *)
}

let create ~sim ?(backend = Nn_backend.kd_tree) ~events ~users ~conflicts () =
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
    backend;
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

let event_capacity t v = t.events.(v).Entity.capacity
let user_capacity t u = t.users.(u).Entity.capacity

let sum_capacity side = Array.fold_left (fun acc e -> acc + e.Entity.capacity) 0 side
let max_capacity side = Array.fold_left (fun acc e -> Stdlib.max acc e.Entity.capacity) 0 side

let sum_event_capacity t = sum_capacity t.events
let sum_user_capacity t = sum_capacity t.users
let max_event_capacity t = max_capacity t.events
let max_user_capacity t = max_capacity t.users

let build_source t ~targets =
  match Similarity.dist_profile t.similarity with
  | Some profile ->
      let points = Array.map (fun (e : Entity.t) -> e.Entity.attrs) targets in
      let index = t.backend.Nn_backend.build points in
      let n_queriers =
        if targets == t.users then Array.length t.events else Array.length t.users
      in
      Indexed { profile; index; streams = Array.make n_queriers None }
  | None ->
      let n_queriers =
        if targets == t.users then Array.length t.events else Array.length t.users
      in
      Scanned { sorted = Array.make n_queriers None }

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

let scan_sorted t ~query_is_event ~node =
  let n = if query_is_event then n_users t else n_events t in
  let pairs = ref [] in
  for j = n - 1 downto 0 do
    let s =
      if query_is_event then sim t ~v:node ~u:j else sim t ~v:j ~u:node
    in
    if s > 0. then pairs := (j, s) :: !pairs
  done;
  let a = Array.of_list !pairs in
  Array.sort
    (fun (i1, s1) (i2, s2) ->
      let c = Float.compare s2 s1 in
      if c <> 0 then c else Int.compare i1 i2)
    a;
  a

let neighbor t source ~query_is_event ~node ~rank =
  assert (rank >= 1);
  match source with
  | Indexed { profile; index; streams } ->
      let stream =
        match streams.(node) with
        | Some s -> s
        | None ->
            let query =
              if query_is_event then t.events.(node).Entity.attrs
              else t.users.(node).Entity.attrs
            in
            let s =
              index.Nn_backend.stream ~query
                ~max_dist:profile.Similarity.cutoff
            in
            streams.(node) <- Some s;
            s
      in
      (match stream.Nn_backend.get rank with
      | None -> None
      | Some (idx, dist) ->
          let s = profile.Similarity.sim_of_dist dist in
          (* Monotone profile: once similarity underflows to 0, so do all
             later ranks. *)
          if s > 0. then Some (idx, s) else None)
  | Scanned { sorted } ->
      let a =
        match sorted.(node) with
        | Some a -> a
        | None ->
            let a = scan_sorted t ~query_is_event ~node in
            sorted.(node) <- Some a;
            a
      in
      if rank <= Array.length a then Some a.(rank - 1) else None

let event_neighbor t ~v ~rank =
  neighbor t (event_source t) ~query_is_event:true ~node:v ~rank

let user_neighbor t ~u ~rank =
  neighbor t (user_source t) ~query_is_event:false ~node:u ~rank

let prepare_event_queries t = ignore (event_source t : source)

(* Similarity-pruned candidate set of one event, for the sparse network
   builder: every user with [sim > 0] (and [>= min_sim]). Unlike
   [event_neighbor] this touches no per-node caches — the indexed path
   opens a fresh stream per call and the scanned path computes directly —
   so after [prepare_event_queries] has forced the shared (read-only)
   index, concurrent calls from pool workers are safe.

   The indexed path recovers similarities through the distance profile,
   whose contract ([sim_of_dist (dist lv lu) = eval lv lu]) makes them
   bitwise-identical to [sim t ~v ~u]; monotonicity lets the collection
   stop at the first rank whose similarity falls below the gate, and
   keeps the stream's order, descending similarity — the cost-ascending
   order [Graph.finalize_csr] lays each event's arcs out in. The scanned
   path yields ascending user id. *)
let candidate_users t ~v ~min_sim =
  match t.event_queries with
  | None ->
      invalid_arg "Instance.candidate_users: call prepare_event_queries first"
  | Some (Indexed { profile; index; streams = _ }) ->
      let stream =
        index.Nn_backend.stream ~query:t.events.(v).Entity.attrs
          ~max_dist:profile.Similarity.cutoff
      in
      let acc = ref [] and count = ref 0 in
      (* poll: ok — the stream stops at the first rank below the gate; bounded by the candidate count *)
      let rec go rank =
        match stream.Nn_backend.get rank with
        | None -> ()
        | Some (u, dist) ->
            let s = profile.Similarity.sim_of_dist dist in
            if s > 0. && s >= min_sim then begin
              acc := (u, s) :: !acc;
              incr count;
              go (rank + 1)
            end
      in
      go 1;
      let a = Array.make !count (0, 0.) in
      List.iter
        (fun c ->
          decr count;
          a.(!count) <- c)
        !acc;
      a
  | Some (Scanned _) ->
      let n = n_users t in
      let acc = ref [] in
      for u = n - 1 downto 0 do
        let s = sim t ~v ~u in
        if s > 0. && s >= min_sim then acc := (u, s) :: !acc
      done;
      Array.of_list !acc

let side_work = function
  | None -> 0
  | Some (Indexed { streams; _ }) ->
      (* Streams are opaque across backends; count the ones opened. *)
      Array.fold_left
        (fun acc s -> match s with None -> acc | Some _ -> acc + 1)
        0 streams
  | Some (Scanned { sorted }) ->
      Array.fold_left
        (fun acc s -> match s with None -> acc | Some a -> acc + Array.length a)
        0 sorted

let neighbor_work t = (side_work t.event_queries, side_work t.user_queries)

let with_backend t backend =
  { t with backend; event_queries = None; user_queries = None }

(* The prepared query sources depend only on the entities, which are
   unchanged — swapping the conflicts keeps the (expensive) NN state. *)
let with_conflicts t conflicts = { t with conflicts }

let pp_summary ppf t =
  Format.fprintf ppf
    "|V|=%d |U|=%d d=%d sum(c_v)=%d sum(c_u)=%d max(c_u)=%d %a sim=%a"
    (n_events t) (n_users t) t.dim (sum_event_capacity t)
    (sum_user_capacity t) (max_user_capacity t) Conflict.pp t.conflicts
    Similarity.pp t.similarity
