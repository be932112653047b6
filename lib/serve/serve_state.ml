open Geacc_core
module Budget = Geacc_robust.Budget
module Error = Geacc_robust.Error
module Binary_heap = Geacc_pqueue.Binary_heap

(* -- Growable arrays (ids are append-only, never reused) -------------- *)

type 'a vec = { mutable data : 'a array; mutable len : int }

let vec_create () = { data = [||]; len = 0 }
let vec_get v i = v.data.(i)
let vec_set v i x = v.data.(i) <- x

let vec_push v x =
  (if v.len = Array.length v.data then begin
     let d = Array.make (max 8 (2 * v.len)) x in
     Array.blit v.data 0 d 0 v.len;
     v.data <- d
   end);
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let vec_to_array v = Array.sub v.data 0 v.len

(* -- The live arrangement --------------------------------------------- *)

(* One event's holders in ascending user id, each with its pair's
   similarity, so the lex-order MaxSum folds them without re-evaluating. *)
type holders = { mutable ids : int array; mutable sims : float array; mutable n : int }

(* What a user's last walk saw. [noseat]: the events of its examined prefix
   it passed over for want of a seat, with no conflict in the way — the
   only events whose seats can change its walk without it holding them.
   [reach]: the similarity of the last rank examined; 0 when the walk ran
   out of ranks (every positive-similarity event examined), infinity when it
   examined none. *)
type walk = { mutable noseat : Bitset.t; reach : float }

type live = {
  m : Matching.t;  (* the one arrangement, re-pointed as the world grows *)
  holders : holders vec;  (* per event *)
  walks : walk vec;  (* per user *)
}

type segment = {
  dir : string;
  name : string;
  bytes : int;
  crc : int;
  n_users : int;
  n_events : int;
}

type t = {
  sim : Similarity.t;
  users : Entity.t vec;
  events : Entity.t vec;
  departed : bool vec;
  closed : bool vec;
  conflicts : (int * int, unit) Hashtbl.t;  (* keys normalised (v < w) *)
  mutable seq : int;
  mutable cursor : int;
  mutable seeds : int list;  (* users the applied, unrepaired ops touched *)
  mutable dirty : int;  (* re-walk every user from here; max_int = none *)
  mutable inst : Instance.t option;  (* the current world, once built *)
  mutable live : live option;  (* built on first use, see [ensure_live] *)
  mutable loaded : (int * int) list;
      (* a snapshot's pairs (lex order) until [live] adopts them *)
  mutable segment : segment option;  (* see [Snapshot] *)
}

let create ~sim =
  {
    sim;
    users = vec_create ();
    events = vec_create ();
    departed = vec_create ();
    closed = vec_create ();
    conflicts = Hashtbl.create 64;
    seq = 0;
    cursor = 0;
    seeds = [];
    dirty = max_int;
    inst = None;
    live = None;
    loaded = [];
    segment = None;
  }

let seq t = t.seq
let cursor t = t.cursor
let n_users t = t.users.len
let n_events t = t.events.len

let count_live flags =
  let n = ref 0 in
  for i = 0 to flags.len - 1 do
    if not (vec_get flags i) then incr n
  done;
  !n

let live_users t = count_live t.departed
let live_events t = count_live t.closed
let n_conflicts t = Hashtbl.length t.conflicts

let conflict_set t =
  let cf = Conflict.create ~n_events:t.events.len in
  Hashtbl.iter (fun (v, w) () -> Conflict.add cf v w) t.conflicts;
  cf

(* Built cold once (first use after [create] or [load]); every later batch
   re-wraps it in [sync], keeping the NN state. *)
let instance t =
  match t.inst with
  | Some _ as s -> s
  | None ->
      if t.users.len = 0 && t.events.len = 0 then None
      else begin
        let inst =
          Instance.create ~sim:t.sim ~events:(vec_to_array t.events)
            ~users:(vec_to_array t.users) ~conflicts:(conflict_set t) ()
        in
        t.inst <- Some inst;
        Some inst
      end

(* Pairs in lex order (event, then user), with their similarities. *)
let iter_pairs t f =
  match t.live with
  | Some l ->
      for v = 0 to l.holders.len - 1 do
        let h = vec_get l.holders v in
        for i = 0 to h.n - 1 do
          f v h.ids.(i) h.sims.(i)
        done
      done
  | None -> (
      match instance t with
      | None -> ()
      | Some inst ->
          List.iter (fun (v, u) -> f v u (Instance.sim inst ~v ~u)) t.loaded)

let pairs t =
  let acc = ref [] in
  iter_pairs t (fun v u _ -> acc := (v, u) :: !acc);
  List.rev !acc

let n_pairs t =
  match t.live with
  | Some l -> Matching.size l.m
  | None -> List.length t.loaded

let maxsum t =
  let acc = ref 0. in
  iter_pairs t (fun _ _ s -> acc := !acc +. s);
  !acc

let min_seed t = List.fold_left min max_int t.seeds

let dirty_from t = min (min (min_seed t) t.dirty) (min t.cursor t.users.len)

let mark_all_dirty t = t.dirty <- 0

(* -- Holders and walks ------------------------------------------------ *)

let holders_create () = { ids = [||]; sims = [||]; n = 0 }

let holder_insert h u s =
  if h.n = Array.length h.ids then begin
    let cap = max 4 (2 * h.n) in
    let ids = Array.make cap 0 and sims = Array.make cap 0. in
    Array.blit h.ids 0 ids 0 h.n;
    Array.blit h.sims 0 sims 0 h.n;
    h.ids <- ids;
    h.sims <- sims
  end;
  let i = ref h.n in
  while !i > 0 && h.ids.(!i - 1) > u do
    h.ids.(!i) <- h.ids.(!i - 1);
    h.sims.(!i) <- h.sims.(!i - 1);
    decr i
  done;
  h.ids.(!i) <- u;
  h.sims.(!i) <- s;
  h.n <- h.n + 1

let holder_remove h u =
  let i = ref 0 in
  while h.ids.(!i) <> u do
    incr i
  done;
  Array.blit h.ids (!i + 1) h.ids !i (h.n - !i - 1);
  Array.blit h.sims (!i + 1) h.sims !i (h.n - !i - 1);
  h.n <- h.n - 1

let blank_walk ~n_events = { noseat = Bitset.create ~bits:n_events; reach = infinity }

let take l ~v ~u =
  match Matching.add l.m ~v ~u with
  | Ok s ->
      holder_insert (vec_get l.holders v) u s;
      true
  | Error _ -> false

let drop l ~v ~u =
  Matching.remove_exn l.m ~v ~u;
  holder_remove (vec_get l.holders v) u

(* The seat-at-turn lemma: users are served in id order and never release a
   seat, so when [u] walks, [v]'s load is the number of its final holders
   below [u]. [u] must hold nothing of [v] here (its pairs are dropped
   before a re-walk). *)
let has_seat l inst ~v ~u =
  let c = Instance.event_capacity inst v and h = vec_get l.holders v in
  h.n < c || (c > 0 && h.ids.(c - 1) > u)

(* Could [v] sit in [y]'s examined prefix? Ranks descend in similarity, so
   an event strictly less similar than the last examined rank is past it;
   ties count as inside (a superset is safe, it only costs a re-walk). *)
let may_examine t w ~v ~y =
  let s =
    Similarity.eval t.sim (vec_get t.events v).Entity.attrs
      (vec_get t.users y).Entity.attrs
  in
  s > 0. && s >= w.reach

(* A seat on [v] (capacity [cap]) freed, or stayed free, past [x]. Users
   past [v]'s fill position that had no seat there are the ones whose walk
   can change; the first of them with a seat now is seeded (if it takes the
   seat, the users after it see [v] full again, as before; if it does not,
   re-walking it calls this again from its own id). *)
let free_seat l ~cap ~seed ~v ~x =
  let h = vec_get l.holders v in
  if cap > 0 && not (h.n >= cap && h.ids.(cap - 1) <= x) then begin
    let j = ref 0 in
    let rec scan y =
      if y < l.walks.len then begin
        while !j < h.n && h.ids.(!j) < y do
          incr j
        done;
        if !j < cap then
          if Bitset.mem (vec_get l.walks y).noseat v && not (Matching.mem l.m ~v ~u:y)
          then seed y
          else scan (y + 1)
      end
    in
    scan (x + 1)
  end

(* -- Building the live arrangement ------------------------------------ *)

(* What [y]'s walk saw, read back from an arrangement already in place (a
   loaded snapshot's): an examined event [y] holds was taken, one
   conflicting with an event taken earlier in the walk was refused for the
   conflict, any other had no seat. Exact when the arrangement is the
   canonical one; the commit audit checks that it is. *)
let derive_walk l inst ~taken y =
  Bitset.clear taken;
  let cap = Instance.user_capacity inst y and cf = Instance.conflicts inst in
  let noseat = Bitset.create ~bits:(Instance.n_events inst) in
  (* poll: ok — bounded by the user's ranks (at most |V|) *)
  let rec go rank count reach =
    if count >= cap then reach
    else
      match Instance.user_neighbor inst ~u:y ~rank with
      | None -> 0.
      | Some (v, s) ->
          if Matching.mem l.m ~v ~u:y then begin
            Bitset.set taken v;
            go (rank + 1) (count + 1) s
          end
          else begin
            if not (Bitset.intersects (Conflict.row cf v) taken) then
              Bitset.set noseat v;
            go (rank + 1) count s
          end
  in
  let reach = go 1 0 infinity in
  { noseat; reach }

(* Adopts [t.loaded] (feasible pairs in lex order; a pair that no longer
   fits pulls the dirty bound down to its user) and derives the walks of
   the users below the sweep start — every user from there on is re-walked
   in order, so its old walk is never read. *)
let build_live t inst =
  let l =
    { m = Matching.create inst; holders = vec_create (); walks = vec_create () }
  in
  for _ = 1 to Instance.n_events inst do
    vec_push l.holders (holders_create ())
  done;
  List.iter (fun (v, u) -> if not (take l ~v ~u) then t.dirty <- min t.dirty u) t.loaded;
  t.loaded <- [];
  let bound = min t.dirty t.cursor in
  let taken = Bitset.create ~bits:(Instance.n_events inst) in
  for y = 0 to Instance.n_users inst - 1 do
    vec_push l.walks
      (if y < bound then derive_walk l inst ~taken y
       else blank_walk ~n_events:(Instance.n_events inst))
  done;
  t.live <- Some l;
  l

let ensure_live t =
  match t.live with
  | Some _ as l -> l
  | None -> Option.map (build_live t) (instance t)

(* After a batch's ops: re-wrap the instance around the new entity arrays
   (sharing the user-side NN source unless an event opened, see
   [Instance.with_entities]) and grow the live arrangement to match. *)
let sync t ~opened ~conflicted =
  match t.inst with
  | None -> ()
  | Some inst ->
      let conflicts =
        if opened then conflict_set t
        else if conflicted = [] then Instance.conflicts inst
        else begin
          let cf = Conflict.copy (Instance.conflicts inst) in
          List.iter (fun (v, w) -> Conflict.add cf v w) conflicted;
          cf
        end
      in
      let inst =
        Instance.with_entities inst ~events:(vec_to_array t.events)
          ~users:(vec_to_array t.users) ~conflicts
      in
      t.inst <- Some inst;
      Option.iter
        (fun l ->
          Matching.extend l.m inst;
          while l.holders.len < t.events.len do
            vec_push l.holders (holders_create ())
          done;
          if opened then
            for y = 0 to l.walks.len - 1 do
              let w = vec_get l.walks y in
              w.noseat <- Bitset.grow w.noseat ~bits:t.events.len
            done;
          while l.walks.len < t.users.len do
            vec_push l.walks (blank_walk ~n_events:t.events.len)
          done)
        t.live

(* -- Applying a batch ------------------------------------------------- *)

exception Reject of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

let validate t (batch : Trace.batch) =
  if batch.Trace.seq <= t.seq then
    reject "batch seq %d is not above the applied seq %d" batch.Trace.seq t.seq;
  let nu = ref t.users.len and ne = ref t.events.len in
  let dim =
    ref
      (if t.users.len > 0 then Entity.dim (vec_get t.users 0)
       else if t.events.len > 0 then Entity.dim (vec_get t.events 0)
       else -1)
  in
  let dep = Hashtbl.create 4
  and clo = Hashtbl.create 4
  and fresh_conflicts = Hashtbl.create 4 in
  let check_entity ~capacity ~attrs =
    if capacity < 0 then reject "capacity %d is negative" capacity;
    let d = Array.length attrs in
    if d = 0 then reject "empty attribute vector";
    if !dim = -1 then dim := d
    else if d <> !dim then
      reject "attribute dimension %d differs from the instance dimension %d" d
        !dim
  in
  let user_departed u =
    (u < t.users.len && vec_get t.departed u) || Hashtbl.mem dep u
  in
  let event_closed v =
    (v < t.events.len && vec_get t.closed v) || Hashtbl.mem clo v
  in
  let check_event_id v =
    if v < 0 || v >= !ne then reject "event id %d out of range [0, %d)" v !ne
  in
  List.iter
    (fun op ->
      match op with
      | Trace.User_arrive { capacity; attrs } ->
          check_entity ~capacity ~attrs;
          incr nu
      | Trace.User_depart u ->
          if u < 0 || u >= !nu then
            reject "user id %d out of range [0, %d)" u !nu;
          if user_departed u then reject "user %d already departed" u;
          Hashtbl.replace dep u ()
      | Trace.Event_open { capacity; attrs } ->
          check_entity ~capacity ~attrs;
          incr ne
      | Trace.Event_close v ->
          check_event_id v;
          if event_closed v then reject "event %d already closed" v;
          Hashtbl.replace clo v ()
      | Trace.Event_capacity { v; capacity } ->
          check_event_id v;
          if event_closed v then reject "event %d is closed" v;
          if capacity < 0 then reject "capacity %d is negative" capacity
      | Trace.Conflict_add (v, w) ->
          check_event_id v;
          check_event_id w;
          if v = w then reject "event %d conflicts with itself" v;
          let key = (min v w, max v w) in
          if Hashtbl.mem t.conflicts key || Hashtbl.mem fresh_conflicts key
          then reject "duplicate conflict pair (%d, %d)" (fst key) (snd key);
          Hashtbl.replace fresh_conflicts key ()
      | Trace.Stats -> ())
    batch.Trace.ops

let tombstone e = Entity.make ~id:e.Entity.id ~attrs:e.Entity.attrs ~capacity:0

(* Seed rules, one per operation, evaluated against the arrangement as it
   stood before the batch (the canonical one for the old world): each seeds
   the users whose walk the operation can change directly. Everything the
   re-walks change in turn is seeded while they run (see [rewalk]).
   DESIGN.md §14.3 argues each rule.

   - arrival, departure: the user itself.
   - close of v: its holders (none keeps a seat; no one else took v).
   - capacity of v lowered to c: its holders past the c-th.
   - capacity raised: the first user with no seat on v that has one now.
   - conflict (v, w): holders of either end whose examined prefix may
     contain the other end.
   - a new event: users whose examined prefix may contain it. *)
let apply_ops t (batch : Trace.batch) =
  let l = ensure_live t in
  let seed u = t.seeds <- u :: t.seeds in
  let holders v f =
    Option.iter
      (fun l ->
        if v < l.holders.len then begin
          let h = vec_get l.holders v in
          for i = 0 to h.n - 1 do
            f i h.ids.(i)
          done
        end)
      l
  in
  let walk y = Option.bind l (fun l -> if y < l.walks.len then Some (vec_get l.walks y) else None) in
  let opened = ref false and conflicted = ref [] in
  List.iter
    (fun op ->
      match op with
      | Trace.User_arrive { capacity; attrs } ->
          let id = t.users.len in
          vec_push t.users (Entity.make ~id ~attrs ~capacity);
          vec_push t.departed false;
          seed id
      | Trace.User_depart u ->
          vec_set t.departed u true;
          vec_set t.users u (tombstone (vec_get t.users u));
          seed u
      | Trace.Event_open { capacity; attrs } ->
          let id = t.events.len in
          vec_push t.events (Entity.make ~id ~attrs ~capacity);
          vec_push t.closed false;
          opened := true;
          Option.iter
            (fun l ->
              for y = 0 to l.walks.len - 1 do
                if may_examine t (vec_get l.walks y) ~v:id ~y then seed y
              done)
            l
      | Trace.Event_close v ->
          vec_set t.closed v true;
          vec_set t.events v (tombstone (vec_get t.events v));
          holders v (fun _ u -> seed u)
      | Trace.Event_capacity { v; capacity } ->
          let e = vec_get t.events v in
          let old = e.Entity.capacity in
          vec_set t.events v (Entity.make ~id:v ~attrs:e.Entity.attrs ~capacity);
          if capacity < old then holders v (fun i u -> if i >= capacity then seed u)
          else if capacity > old then
            (* The instance still holds the old capacity: pass the new one. *)
            Option.iter
              (fun l ->
                if v < l.holders.len then
                  free_seat l ~cap:capacity ~seed ~v ~x:(-1))
              l
      | Trace.Conflict_add (v, w) ->
          let key = (min v w, max v w) in
          Hashtbl.replace t.conflicts key ();
          conflicted := key :: !conflicted;
          let other a b =
            holders a (fun _ y ->
                match walk y with
                | Some wk when may_examine t wk ~v:b ~y -> seed y
                | _ -> ())
          in
          other v w;
          other w v
      | Trace.Stats -> ())
    batch.Trace.ops;
  sync t ~opened:!opened ~conflicted:!conflicted;
  t.seq <- batch.Trace.seq

let apply_batch t batch =
  match validate t batch with
  | () ->
      apply_ops t batch;
      Ok ()
  | exception Reject message ->
      Error
        (Error.Invalid_input
           { what = Printf.sprintf "batch %d" batch.Trace.seq; message })

(* -- Repair ----------------------------------------------------------- *)

type repair = {
  matching : Matching.t option;
  served_to : int;
  complete : bool;
  replayed_from : int;
  rewalked : int;
}

(* Re-walks [u] from its first rank: drops its pairs, then takes every
   examined event that has a seat at its turn and no conflict, until full
   or out of ranks — [Online.serve_user]'s walk with the seat test in place
   of the event load, which later users' stale pairs may still inflate.
   Taking such a seat evicts the last holder (past [u]) and seeds it, so no
   capacity is exceeded. Afterwards every event [u] dropped or found
   without a seat may have a seat for a later user: [free_seat] checks.
   [false] when the deadline cut the walk. *)
let rewalk l inst ~deadline ~seed u =
  let m = l.m in
  let old_held = Matching.user_events m u and old = vec_get l.walks u in
  List.iter (fun v -> drop l ~v ~u) old_held;
  let noseat = Bitset.create ~bits:(Instance.n_events inst) in
  let cap = Instance.user_capacity inst u in
  let rec step rank reach =
    if Budget.check deadline then None
    else if Matching.user_load m u >= cap then Some reach
    else
      match Instance.user_neighbor inst ~u ~rank with
      | None -> Some 0.
      | Some (v, s) ->
          (if Matching.user_conflicts_with m ~u ~v then ()
           else if not (has_seat l inst ~v ~u) then Bitset.set noseat v
           else begin
             let h = vec_get l.holders v and c = Instance.event_capacity inst v in
             while h.n >= c do
               let last = h.ids.(h.n - 1) in
               drop l ~v ~u:last;
               seed last
             done;
             ignore (take l ~v ~u : bool)
           end);
          step (rank + 1) s
  in
  let result = step 1 infinity in
  vec_set l.walks u { noseat; reach = Option.value result ~default:infinity };
  let freed v = free_seat l ~cap:(Instance.event_capacity inst v) ~seed ~v ~x:u in
  List.iter freed old_held;
  Bitset.iter old.noseat freed;
  Option.is_some result

(* Removes every pair of users above [u] (a cut-short repair keeps nothing
   there: they are all re-walked next time). *)
let cut_above l ~n u =
  for y = u + 1 to n - 1 do
    List.iter (fun v -> drop l ~v ~u:y) (Matching.user_events l.m y)
  done

let repair ?from t ~deadline =
  match instance t with
  | None ->
      { matching = None; served_to = 0; complete = true; replayed_from = 0; rewalked = 0 }
  | Some inst ->
      let l = Option.get (ensure_live t) in
      let n = t.users.len in
      let sweep =
        ref
          (match from with
          | None -> min t.dirty t.cursor
          | Some f -> min (max f 0) (dirty_from t))
      in
      let queued = Bitset.create ~bits:n in
      let heap = Binary_heap.create ~cmp:Int.compare () in
      let seed y =
        if y < n && not (Bitset.mem queued y) then begin
          Bitset.set queued y;
          Binary_heap.push heap y
        end
      in
      List.iter seed t.seeds;
      (* Seeds and the sweep, merged in ascending id order. *)
      let next () =
        match Binary_heap.peek heap with
        | Some h when h < !sweep -> Binary_heap.pop heap
        | h ->
            if !sweep >= n then None
            else begin
              let u = !sweep in
              incr sweep;
              if h = Some u then ignore (Binary_heap.pop heap : int option);
              Bitset.set queued u;
              Some u
            end
      in
      let first = ref n and count = ref 0 in
      let rec go () =
        match next () with
        | None -> None
        | Some u ->
            if !count = 0 then first := u;
            incr count;
            match rewalk l inst ~deadline ~seed u with
            | true -> go ()
            | false -> Some u
            | exception e ->
                (* Users below [u] are final; re-walk the rest next time. *)
                t.dirty <- min t.dirty u;
                raise e
      in
      let served_to =
        match go () with
        | None ->
            t.seeds <- [];
            t.dirty <- max_int;
            n
        | Some u ->
            cut_above l ~n u;
            t.seeds <- [];
            t.dirty <- u;
            u
      in
      {
        matching = Some l.m;
        served_to;
        complete = served_to = n;
        replayed_from = !first;
        rewalked = !count;
      }

(* A repair of the live arrangement is already in place; anything else (an
   offline solver's matching) replaces it, and the next batch derives the
   walks anew. *)
let commit t (r : repair) =
  (match (r.matching, t.live) with
  | Some m, Some l when m == l.m -> ()
  | Some m, _ ->
      t.live <- None;
      t.loaded <- Matching.pairs m;
      t.seeds <- [];
      t.dirty <- max_int
  | None, _ ->
      t.live <- None;
      t.loaded <- []);
  t.cursor <- r.served_to

(* -- Digest ----------------------------------------------------------- *)

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let conflicts t =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) t.conflicts [])

let digest t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "seq %d cursor %d users %d events %d\n" t.seq t.cursor
    t.users.len t.events.len;
  for u = 0 to t.users.len - 1 do
    Printf.bprintf buf "u %d %b\n" (vec_get t.users u).Entity.capacity
      (vec_get t.departed u)
  done;
  for v = 0 to t.events.len - 1 do
    Printf.bprintf buf "v %d %b\n" (vec_get t.events v).Entity.capacity
      (vec_get t.closed v)
  done;
  List.iter (fun (v, w) -> Printf.bprintf buf "cf %d %d\n" v w) (conflicts t);
  iter_pairs t (fun v u _ -> Printf.bprintf buf "p %d %d\n" v u);
  Printf.bprintf buf "maxsum %Lx\n" (Int64.bits_of_float (maxsum t));
  Printf.sprintf "%016Lx" (fnv1a64 (Buffer.contents buf))

(* -- Persistence ------------------------------------------------------ *)

let sim t = t.sim
let user t u = vec_get t.users u
let event t v = vec_get t.events v
let departed t u = vec_get t.departed u
let closed t v = vec_get t.closed v

(* [n_users] stands in for the max_int clean marker; [dirty_from] caps
   there anyway. *)
let dirty_bound t = min (min (min_seed t) t.dirty) t.users.len

let segment t = t.segment
let set_segment t s = t.segment <- Some s

let vec_of_array a = { data = a; len = Array.length a }

let restore ~sim ~seq ~cursor ~dirty ~users ~events ~departed ~closed ~conflicts
    ~pairs =
  let flags n ids =
    let f = Array.make n false in
    List.iter (fun i -> f.(i) <- true) ids;
    vec_of_array f
  in
  let t =
    {
      (create ~sim) with
      users = vec_of_array users;
      events = vec_of_array events;
      departed = flags (Array.length users) departed;
      closed = flags (Array.length events) closed;
      seq;
      cursor;
      dirty = (if dirty >= Array.length users then max_int else dirty);
      loaded = pairs;
    }
  in
  List.iter (fun k -> Hashtbl.replace t.conflicts k ()) conflicts;
  t
