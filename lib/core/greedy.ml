module Heap = Geacc_pqueue.Binary_heap
module Audit = Geacc_check.Audit
module Budget = Geacc_robust.Budget

type candidate = { sim : float; v : int; u : int }

(* Max-heap on similarity; ties by ascending event id. The heap holds at
   most one candidate per event, so this orders it totally, as (sim, v, u)
   would. *)
let candidate_cmp c1 c2 =
  let c = Float.compare c2.sim c1.sim in
  if c <> 0 then c else Int.compare c1.v c2.v

type state = {
  instance : Instance.t;
  matching : Matching.t;
  heap : candidate Heap.t;  (* at most one candidate per event *)
  event_rank : int array;  (* next rank of each event's list to examine *)
  mutable open_users : int;  (* users with capacity left *)
}

(* Walk [v]'s list from [rank] to its first user that is feasible right
   now, and push that pair. Capacity and conflicts are tested on the id
   alone; the similarity is read only for the pair pushed. A user skipped
   here is infeasible for [v] for the rest of the run (capacities only
   shrink and assignments only grow), so the cursor passes it for good. *)
(* poll: ok — the cursor only advances, so walks are amortized over the popping loop, which polls *)
let rec walk st v rank =
  let u = Instance.event_user_at st.instance ~v ~rank in
  if u >= 0 then
    if
      Matching.remaining_user_capacity st.matching u <= 0
      || Matching.user_conflicts_with st.matching ~u ~v
    then walk st v (rank + 1)
    else begin
      st.event_rank.(v) <- rank + 1;
      let sim = Instance.event_sim_at st.instance ~v ~rank in
      (* alloc: ok — one candidate per push, and at most one push per pop *)
      Heap.push st.heap { sim; v; u }
    end

let solve_anytime ?(deadline = Budget.unlimited) instance =
  let open_users = ref 0 in
  for u = 0 to Instance.n_users instance - 1 do
    if Instance.user_capacity instance u > 0 then incr open_users
  done;
  let st =
    {
      instance;
      matching = Matching.create instance;
      heap = Heap.create ~cmp:candidate_cmp ();
      event_rank = Array.make (Instance.n_events instance) 1;
      open_users = !open_users;
    }
  in
  (* Initialisation (Algorithm 2, lines 1-9), one-sided: each event with
     capacity contributes its most similar feasible pair. *)
  if st.open_users > 0 then
    for v = 0 to Instance.n_events instance - 1 do
      if Instance.event_capacity instance v > 0 then walk st v 1
    done;
  (* Iteration (lines 11-23): pop the most similar candidate, match it when
     feasible, then refill from the popped event while it has capacity.
     The loop ends when the heap runs dry (every event is saturated or
     has walked its whole list) or no user has capacity left. The deadline
     is polled between pops, so every matched pair went through the full
     feasibility check and the prefix stays feasible on expiry. *)
  let rec loop () =
    if Budget.check deadline then false
    else if st.open_users = 0 || Heap.is_empty st.heap then true
    else begin
      let { v; u; _ } = Heap.pop_exn st.heap in
      (match Matching.add st.matching ~v ~u with
      | Ok _ ->
          if Matching.remaining_user_capacity st.matching u = 0 then
            st.open_users <- st.open_users - 1
      | Error _ -> ());
      if st.open_users > 0 && Matching.remaining_event_capacity st.matching v > 0
      then walk st v st.event_rank.(v);
      (* Audit at the step granularity: a conflict or capacity overflow is
         reported at the pop that introduced it, with the heap's structure
         checked alongside the partial matching. *)
      if Audit.enabled () then begin
        Audit.Heap.check_binary ~site:"Greedy.solve/pop" st.heap;
        Validate.audit_matching ~site:"Greedy.solve/pop" st.matching
      end;
      loop ()
    end
  in
  let complete = loop () in
  if not complete then
    Validate.audit_matching ~site:"Greedy.solve/degraded" st.matching;
  (st.matching, complete)

let solve instance = fst (solve_anytime instance)
