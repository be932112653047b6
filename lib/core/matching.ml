type reject =
  | Event_full
  | User_full
  | Zero_similarity
  | Conflicting_event of int
  | Duplicate

type t = {
  mutable instance : Instance.t;
  (* Per-side arrays may run longer than the instance's sides: {!extend}
     grows them with slack as the serving layer's world grows. *)
  mutable event_load : int array;
  mutable user_load : int array;
  mutable user_events : int list array;
  (* Bitset twin of [user_events]: the conflict feasibility probe
     intersects a user's assigned-event set against an event's conflict
     row (one word-AND scan) instead of walking the list per pair. It is
     also the membership index: (v,u) is present iff bit v of u's set is. *)
  mutable user_bits : Bitset.t array;
  mutable size : int;
  mutable maxsum : float;
}

let create instance =
  let n_events = Instance.n_events instance in
  {
    instance;
    event_load = Array.make n_events 0;
    user_load = Array.make (Instance.n_users instance) 0;
    user_events = Array.make (Instance.n_users instance) [];
    user_bits =
      Array.init (Instance.n_users instance) (fun _ ->
          Bitset.create ~bits:n_events);
    size = 0;
    maxsum = 0.;
  }

let instance t = t.instance

let mem t ~v ~u = Bitset.mem t.user_bits.(u) v

(* Amortised doubling, so a world growing one entity per batch pays O(1)
   per arrival. *)
let grown a ~len ~fill =
  if len <= Array.length a then a
  else begin
    let g = Array.make (Stdlib.max len (2 * Array.length a)) fill in
    Array.blit a 0 g 0 (Array.length a);
    g
  end

let extend t instance =
  let n_events = Instance.n_events instance
  and n_users = Instance.n_users instance in
  if n_events < Instance.n_events t.instance || n_users < Instance.n_users t.instance
  then invalid_arg "Matching.extend: the instance shrank";
  t.event_load <- grown t.event_load ~len:n_events ~fill:0;
  t.user_load <- grown t.user_load ~len:n_users ~fill:0;
  t.user_events <- grown t.user_events ~len:n_users ~fill:[];
  let rows = Array.length t.user_bits in
  if n_users > rows then begin
    let g = grown t.user_bits ~len:n_users ~fill:(Bitset.create ~bits:0) in
    for u = rows to Array.length g - 1 do
      g.(u) <- Bitset.create ~bits:n_events
    done;
    t.user_bits <- g
  end;
  if n_events > Instance.n_events t.instance then
    Array.iteri
      (fun u row -> t.user_bits.(u) <- Bitset.grow row ~bits:n_events)
      t.user_bits;
  t.instance <- instance

let user_conflicts_with t ~u ~v =
  let cf = Instance.conflicts t.instance in
  Bitset.intersects (Conflict.row cf v) t.user_bits.(u)

let check_add t ~v ~u =
  if mem t ~v ~u then Some Duplicate
  else if t.event_load.(v) >= Instance.event_capacity t.instance v then
    Some Event_full
  else if t.user_load.(u) >= Instance.user_capacity t.instance u then
    Some User_full
  else if Instance.sim t.instance ~v ~u <= 0. then Some Zero_similarity
  else
    let cf = Instance.conflicts t.instance in
    let row = Conflict.row cf v in
    if Bitset.intersects row t.user_bits.(u) then
      (* The witness (smallest conflicting assigned event) is only
         computed on the reject path. *)
      Some (Conflicting_event (Bitset.first_common row t.user_bits.(u)))
    else None

let add t ~v ~u =
  match check_add t ~v ~u with
  | Some reason -> Error reason
  | None ->
      let s = Instance.sim t.instance ~v ~u in
      t.event_load.(v) <- t.event_load.(v) + 1;
      t.user_load.(u) <- t.user_load.(u) + 1;
      t.user_events.(u) <- v :: t.user_events.(u);
      Bitset.set t.user_bits.(u) v;
      t.size <- t.size + 1;
      t.maxsum <- t.maxsum +. s;
      Ok s

(* Fault injection for audit tests: perform the bookkeeping of [add] without
   any feasibility check, so tests can build structurally corrupt matchings
   and prove the audit checkers catch them. *)
(* bounds: proved — audit-harness contract: callers pass v < num_events, u < num_users; loads arrays have those lengths *)
let unsafe_add t ~v ~u =
  t.event_load.(v) <- t.event_load.(v) + 1;
  t.user_load.(u) <- t.user_load.(u) + 1;
  t.user_events.(u) <- v :: t.user_events.(u);
  Bitset.set t.user_bits.(u) v;
  t.size <- t.size + 1;
  t.maxsum <- t.maxsum +. Instance.sim t.instance ~v ~u

(* bounds: proved — audit-harness contract: touches only the maxsum accumulator, no array access *)
let unsafe_nudge_maxsum t delta = t.maxsum <- t.maxsum +. delta

let reject_to_string = function
  | Event_full -> "event capacity exhausted"
  | User_full -> "user capacity exhausted"
  | Zero_similarity -> "zero similarity"
  | Conflicting_event v -> Printf.sprintf "conflicts with assigned event %d" v
  | Duplicate -> "pair already matched"

let add_exn t ~v ~u =
  match add t ~v ~u with
  | Ok s -> s
  | Error reason ->
      invalid_arg
        (Printf.sprintf "Matching.add_exn (%d,%d): %s" v u
           (reject_to_string reason))

let remove_first x list =
  (* poll: ok — bounded by one user's assignment list (at most c_u events) *)
  let rec go acc = function
    | [] -> invalid_arg "Matching.remove_exn: internal inconsistency"
    | y :: rest when y = x -> List.rev_append acc rest
    | y :: rest -> go (y :: acc) rest
  in
  go [] list

let remove_exn t ~v ~u =
  if not (mem t ~v ~u) then
    invalid_arg (Printf.sprintf "Matching.remove_exn: pair (%d,%d) absent" v u);
  t.event_load.(v) <- t.event_load.(v) - 1;
  t.user_load.(u) <- t.user_load.(u) - 1;
  t.user_events.(u) <- remove_first v t.user_events.(u);
  (* (v,u) pairs are unique, so the user holds no other copy of v. *)
  Bitset.reset t.user_bits.(u) v;
  t.size <- t.size - 1;
  t.maxsum <- t.maxsum -. Instance.sim t.instance ~v ~u

let size t = t.size
let maxsum t = t.maxsum

let pairs t =
  let acc = ref [] in
  for u = Instance.n_users t.instance - 1 downto 0 do
    List.iter (fun v -> acc := (v, u) :: !acc) t.user_events.(u)
  done;
  List.sort compare !acc

let maxsum_recomputed t =
  List.fold_left
    (fun acc (v, u) -> acc +. Instance.sim t.instance ~v ~u)
    0. (pairs t)

let user_events t u = t.user_events.(u)
let event_load t v = t.event_load.(v)
let user_load t u = t.user_load.(u)

let remaining_event_capacity t v =
  Instance.event_capacity t.instance v - t.event_load.(v)

let remaining_user_capacity t u =
  Instance.user_capacity t.instance u - t.user_load.(u)

let copy t =
  {
    instance = t.instance;
    event_load = Array.copy t.event_load;
    user_load = Array.copy t.user_load;
    user_events = Array.copy t.user_events;
    user_bits = Array.map Bitset.copy t.user_bits;
    size = t.size;
    maxsum = t.maxsum;
  }

let pp ppf t =
  Format.fprintf ppf "M(|M|=%d, MaxSum=%.4f):" t.size t.maxsum;
  List.iter (fun (v, u) -> Format.fprintf ppf " (v%d,u%d)" v u) (pairs t)
