(** Greedy-GEACC (paper Algorithm 2, approximation ratio 1/(1+α)).

    Repeatedly matches the most similar pair that is still feasible, ties
    broken by (event, user) id, until none is left: the arrangement of
    sorting every positive-similarity pair that way and adding each one
    that fits ({!Greedy_naive}, which is the test oracle).

    {b One-sided walk.} Algorithm 2 seeds its heap with every node's
    nearest neighbour on the opposite side and refills from both popped
    nodes. This implementation keeps a rank cursor per event and none per
    user: the heap holds at most one candidate per event, that event's
    first feasible pair from its cursor on. After a pop it refills only the
    popped event, while the event has capacity. This gives Algorithm 2's
    arrangement because:
    - every positive-similarity pair sits in its event's list
      ({!Instance.event_user_at}), in descending similarity, ties by user
      id: the sort order restricted to the event;
    - infeasibility is monotone (capacities only shrink, assignments only
      grow), so a pair the cursor skips stays infeasible for the rest of
      the run;
    - so each event's candidate precedes, in the sort order, every pair
      of that event that is still feasible, and the heap's top precedes
      every feasible pair left. If the top is feasible itself, it is the
      pair {!Greedy_naive} adds next; if not, adding it fails and changes
      nothing.
    A cursor passes each rank once, so no pair is pushed twice. The result
    is maximal (Lemma 5): when the heap runs dry, every event with capacity
    left has walked its whole list, and a pair a cursor passed is
    infeasible for good.

    The walk tests capacity and conflicts on a rank's user id and reads
    the similarity only for the pair it pushes. The loop stops when the
    heap is empty (every event is saturated or has walked its list) or
    when no user has capacity left, so events do not walk the rest of
    their lists for nothing once the users fill up first.

    Cost: one neighbour list per event with capacity and none for users,
    about |V|·|U|·16 bytes in all; at most |V| heap entries; O(log |V|)
    per pop plus the ranks the cursors pass.

    Deterministic. *)

val solve : Instance.t -> Matching.t

val solve_anytime :
  ?deadline:Geacc_robust.Budget.t -> Instance.t -> Matching.t * bool
(** [solve] under a time budget, polled once per heap pop. On expiry the
    run stops between pops — every pair already matched passed the full
    feasibility check, so the prefix is a feasible (if no longer maximal)
    matching. Returns [(matching, complete)]; [complete = false] means the
    deadline fired first. *)
