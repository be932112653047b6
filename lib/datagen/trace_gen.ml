open Geacc_util
open Geacc_core
module Trace = Geacc_serve.Trace

let pick_tier rng =
  let r = Rng.float rng 1. in
  if r < 0.2 then Trace.Must else if r < 0.7 then Trace.Should
  else Trace.Optional

let entity_op mk (e : Entity.t) =
  mk ~capacity:e.Entity.capacity ~attrs:(Array.copy e.Entity.attrs)

let generate ~seed ?(city = Meetup.auckland) ?(conflict_ratio = 0.25)
    ?(arrivals_per_batch = 8) ?(churn = 0.1) () =
  if arrivals_per_batch < 1 then
    invalid_arg "Trace_gen.generate: arrivals_per_batch < 1";
  if not (churn >= 0. && churn <= 1.) then
    invalid_arg "Trace_gen.generate: churn outside [0, 1]";
  let inst = Meetup.generate ~seed ~conflict_ratio city in
  (* Decorrelated from the seed stream Meetup.generate consumes. *)
  let rng = Rng.create ~seed:(seed lxor 0x7ace5) in
  let events = Instance.events inst and users = Instance.users inst in
  let n_events = Array.length events and n_users = Array.length users in
  let conflicts = ref [] in
  Conflict.iter_pairs (Instance.conflicts inst) (fun v w ->
      conflicts := (v, w) :: !conflicts);
  let conflicts = Array.of_list (List.rev !conflicts) in
  Rng.shuffle_in_place rng conflicts;
  let batches = ref [] and seq = ref 0 and ts = ref 0. in
  let push tier ops =
    incr seq;
    batches := { Trace.seq = !seq; ts = !ts; tier; ops } :: !batches
  in
  let advance_ts () =
    (* A quarter of the batches share the previous timestamp — admission
       groups with real contention. *)
    if Rng.float rng 1. >= 0.25 then ts := !ts +. 0.1 +. Rng.float rng 10.
  in
  (* Half the events exist before the first user shows up; the rest are
     paced to open within roughly the first third of the stream — the
     Meetup regime: events are published early, then arrivals dominate. *)
  let initial_open = max 1 (n_events / 2) in
  push Trace.Must
    (List.init initial_open (fun v ->
         entity_op (fun ~capacity ~attrs -> Trace.Event_open { capacity; attrs })
           events.(v)));
  let opened = ref initial_open in
  let arrived = ref 0 in
  let departed = Array.make n_users false in
  let closed = Array.make (max 1 n_events) false in
  let conflict_cursor = ref 0 in
  let expected_batches =
    max 1 (n_users / max 1 ((1 + (2 * arrivals_per_batch)) / 2))
  in
  let open_deadline = max 1 (expected_batches / 3) in
  let batch_index = ref 0 in
  let live_user () =
    (* A uniformly random arrived, still-present user; None when everyone
       left. Bounded rejection sampling keeps this deterministic-cheap. *)
    let rec go tries =
      if tries = 0 || !arrived = 0 then None
      else
        let u = Rng.int rng !arrived in
        if departed.(u) then go (tries - 1) else Some u
    in
    go 8
  in
  let open_event () =
    let rec go tries =
      if tries = 0 || !opened = 0 then None
      else
        let v = Rng.int rng !opened in
        if closed.(v) then go (tries - 1) else Some v
    in
    go 8
  in
  while !arrived < n_users do
    advance_ts ();
    let burst =
      min (n_users - !arrived) (Rng.int_in rng 1 (2 * arrivals_per_batch))
    in
    let ops = ref [] in
    (* Arrivals, in id order so trace ids equal instance ids. *)
    for _ = 1 to burst do
      ops :=
        entity_op
          (fun ~capacity ~attrs -> Trace.User_arrive { capacity; attrs })
          users.(!arrived)
        :: !ops;
      incr arrived
    done;
    (* Late event openings: enough each batch to exhaust by the deadline. *)
    incr batch_index;
    if !opened < n_events && !batch_index <= open_deadline then begin
      let want =
        let slots = open_deadline - !batch_index + 1 in
        max 1 ((n_events - !opened + slots - 1) / slots)
      in
      for _ = 1 to min want (n_events - !opened) do
        ops :=
          entity_op
            (fun ~capacity ~attrs -> Trace.Event_open { capacity; attrs })
            events.(!opened)
          :: !ops;
        incr opened
      done
    end;
    (* Conflict pairs surface as soon as both endpoints are open — they
       cluster into the event-opening phase, like a published programme's
       schedule clashes. *)
    while
      !conflict_cursor < Array.length conflicts
      && (fun (v, w) -> v < !opened && w < !opened)
           conflicts.(!conflict_cursor)
    do
      let v, w = conflicts.(!conflict_cursor) in
      ops := Trace.Conflict_add (v, w) :: !ops;
      incr conflict_cursor
    done;
    (* Churn. *)
    if Rng.bernoulli rng churn then begin
      match live_user () with
      | Some u ->
          departed.(u) <- true;
          ops := Trace.User_depart u :: !ops
      | None -> ()
    end;
    if Rng.bernoulli rng 0.08 then begin
      match open_event () with
      | Some v ->
          ops :=
            Trace.Event_capacity { v; capacity = Rng.int_in rng 1 50 } :: !ops
      | None -> ()
    end;
    if Rng.bernoulli rng 0.03 then begin
      match open_event () with
      | Some v ->
          closed.(v) <- true;
          ops := Trace.Event_close v :: !ops
      | None -> ()
    end;
    if Rng.bernoulli rng 0.05 then ops := Trace.Stats :: !ops;
    push (pick_tier rng) (List.rev !ops)
  done;
  (* Open any stragglers (with the conflicts they unblock), then a final
     Must probe pinning the end state. *)
  if !opened < n_events then begin
    advance_ts ();
    let ops =
      ref
        (List.rev_map
           (fun i ->
             entity_op
               (fun ~capacity ~attrs -> Trace.Event_open { capacity; attrs })
               events.(i))
           (List.init (n_events - !opened) (fun i -> !opened + i)))
    in
    opened := n_events;
    while !conflict_cursor < Array.length conflicts do
      let v, w = conflicts.(!conflict_cursor) in
      ops := Trace.Conflict_add (v, w) :: !ops;
      incr conflict_cursor
    done;
    push Trace.Must (List.rev !ops)
  end;
  advance_ts ();
  push Trace.Must [ Trace.Stats ];
  { Trace.sim = Instance.similarity inst; batches = List.rev !batches }
