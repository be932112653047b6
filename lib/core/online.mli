(** Online event-participant arrangement (extension beyond the paper).

    In a live EBSN users arrive over time and must be answered immediately;
    the paper's conclusion points at such dynamic settings. This solver
    processes users in an arrival order and irrevocably assigns each, on
    arrival, their most interesting events greedily — best first — until
    the user's capacity is filled or no feasible event remains (event
    capacities deplete as earlier arrivals consume them; conflict
    constraints apply within the user's own assignment).

    The result is feasible by construction but can be far below the offline
    algorithms — early arrivals lock up capacity of broadly popular
    events — which the [ablation-online] benchmark quantifies against
    Greedy-GEACC and the optimum.

    Arrival orders come from callers (ultimately from network input in a
    serving deployment), so a bad order is a data error, not a programming
    error: it is reported as a structured [Error.Invalid_input] naming the
    offending id, never as an exception. *)

val check_order :
  Instance.t -> int array -> (unit, Geacc_robust.Error.t) result
(** [Ok ()] iff the array is a permutation of the user ids. The error
    pinpoints the first problem: wrong length, out-of-range id, or
    duplicated id. *)

val serve_user :
  Matching.t -> Instance.t -> ?deadline:Geacc_robust.Budget.t -> int -> unit
(** Serve one arrival into an arrangement under construction: walk user
    [u]'s neighbour ranks (descending similarity), taking every event that
    is feasible right now, until the user is full or the ranks run out.
    [deadline] is polled before every neighbour step; every prefix of the
    walk leaves the matching feasible, so a cut-short serve is safe.

    This is what a full replay ({!solve}) runs, and so the oracle the
    serving loop ([Geacc_serve]) is held to: its incremental repair re-walks
    single users with the same walk, testing each event's seat against the
    holders below the user instead of the event's load. The online
    arrangement is {e prefix-stable} — a user's assignment depends only on
    users served before them. *)

val solve :
  ?order:int array ->
  ?deadline:Geacc_robust.Budget.t ->
  Instance.t ->
  (Matching.t, Geacc_robust.Error.t) result
(** [order] is the arrival permutation of user ids (default: ascending).
    Fails with {!check_order}'s error when [order] is not a permutation.

    [deadline] (default {!Geacc_robust.Budget.unlimited}) is polled before
    every assignment step; on expiry the remaining arrivals are left
    unserved and the (feasible) prefix matching is returned. *)

val solve_random_order :
  ?deadline:Geacc_robust.Budget.t ->
  rng:Geacc_util.Rng.t ->
  Instance.t ->
  Matching.t
(** Arrival order drawn uniformly from the permutations of the users.
    [deadline] as in {!solve}. *)
