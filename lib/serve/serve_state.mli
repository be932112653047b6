(** The serving loop's mutable world: a growing instance plus its canonical
    arrangement, both kept live between batches.

    The state owns dynamic user/event sides (ids assigned by arrival order,
    never reused — departures and closures become capacity-0 {e tombstones},
    so every historical id stays addressable), the conflict set, the
    committed arrangement and the repair bookkeeping ([seq] of the last
    applied batch, [cursor] of the first not-fully-served user, and the
    pending set: the users the applied ops touched plus a dirty bound).

    {2 The canonical arrangement, and why repair is exact}

    The arrangement maintained is {e defined} as what [Online] greedy
    produces when the current users are served in id order against the
    current events. Users never release a seat, so when user [u] walks,
    event [v] has a seat iff fewer than [c_v] of [v]'s final holders have
    an id below [u] ({e seat-at-turn}). A walk is therefore a function of
    the user's own ranks and capacity, the conflicts among its examined
    prefix, and the seat of each examined event at its turn — nothing
    else. {!apply_batch} seeds the users an op changes directly (the
    arriving or departing user, holders that lose a seat, the first user
    a freed seat reaches, holders a new conflict constrains, users whose
    prefix a new event may enter); {!repair} re-walks them in id order
    with the seat test, and each re-walk seeds the users {e it} changes: a
    later holder it evicts from a seat, the next user a seat it gave up or
    passed over reaches. DESIGN.md §14.3 argues each rule; the per-batch
    oracle tests and the [GEACC_AUDIT] commit check hold the result to a
    full [Online] replay, bit for bit.

    A repair cut short by its deadline keeps the canonical pairs below the
    cut user, that user's partial walk, and nothing above it; everything
    from the cut user on stays pending and is re-walked next time. *)

type t

val create : sim:Geacc_core.Similarity.t -> t
(** Empty world: no entities, no conflicts, empty arrangement, [seq = 0]. *)

val seq : t -> int
(** Sequence number of the last applied batch (0 initially). *)

val cursor : t -> int
(** First user id not fully served by the committed arrangement
    ([n_users] when the last repair completed). *)

val n_users : t -> int
(** User ids assigned so far, tombstones included. *)

val n_events : t -> int

val live_users : t -> int
(** Users that have arrived and not departed. *)

val live_events : t -> int

val n_conflicts : t -> int

val pairs : t -> (int * int) list
(** The arrangement, sorted lexicographically. Built on each call, for
    digests, snapshots and tests; the per-batch path reads {!n_pairs} and
    {!maxsum} instead. After a {!repair} and before its {!commit} this is
    already the repaired arrangement (repair works in place). *)

val n_pairs : t -> int
(** [List.length (pairs t)], without building the list. *)

val instance : t -> Geacc_core.Instance.t option
(** The current world as a solver instance (tombstones included as
    capacity-0 entities), [None] while no entity exists. Built cold on
    first use after {!create} or {!restore}; after that every applied batch
    re-wraps it around the new entity arrays with
    [Instance.with_entities], so the user-side NN source (event index and
    ranked streams) carries over and only a batch opening an event
    rebuilds it. Instances already handed out stay valid and unchanged. *)

val maxsum : t -> float
(** MaxSum of the arrangement, summed in canonical (lex pair) order — the
    value digests and replay-equivalence checks compare. Folds the pair
    similarities recorded at insertion; no pair list is built. *)

val dirty_from : t -> int
(** The smallest user the next {!repair} re-walks first: the smallest
    pending seed, capped by the dirty bound, {!cursor} and [n_users].
    Equal to [n_users] when nothing is pending and the state is fully
    served. *)

val mark_all_dirty : t -> unit
(** Forces the next {!repair} to re-walk every user: the full-replay
    oracle, on the state's own arrangement. *)

val apply_batch : t -> Trace.batch -> (unit, Geacc_robust.Error.t) result
(** Validates every operation of the batch against the current state
    (unknown or tombstoned ids, attribute-dimension mismatches, duplicate
    conflicts — arrivals earlier in the batch are visible to later
    operations), then applies them all, seeds the users they change and
    advances [seq]. On [Error] ([Invalid_input]) the state is untouched:
    validation precedes every mutation, so journal replay rejects exactly
    the batches the live run rejected. *)

type repair = {
  matching : Geacc_core.Matching.t option;
      (** The arrangement ([None] when the world has no entities). For a
          repair by this module it is the state's own live arrangement. *)
  served_to : int;  (** First user not fully served; the new cursor. *)
  complete : bool;  (** [served_to = n_users] and no deadline expiry. *)
  replayed_from : int;
      (** The smallest user re-walked; [n_users] when none was. *)
  rewalked : int;  (** Users re-walked (the cut user included). *)
}

val repair : ?from:int -> t -> deadline:Geacc_robust.Budget.t -> repair
(** Repairs the live arrangement in place. Without [from], propagates:
    re-walks the pending seeds (and every user at or above a pending dirty
    bound — left by a cut repair or a snapshot load) in ascending id order,
    plus every user those re-walks seed. [~from:f] re-walks every user
    from [f] on (clamped into [[0, dirty_from]], so callers can only ask
    for {e more}; [~from:0] is the full re-solve). On expiry it keeps
    what the cut-short contract above says and leaves everything from the
    cut user pending.

    The pending set is consumed by the repair itself, not by {!commit}:
    a complete repair leaves nothing pending, a cut one leaves the cut
    user's suffix. So a result that is dropped (a fallback chain moving on
    to its next stage, a comparison) still leaves a state the next repair
    finishes exactly. Each repair supersedes the ones before it: commit
    the latest, or none. *)

val commit : t -> repair -> unit
(** Adopts a repair's cursor. A repair by {!repair} is already in place;
    any other arrangement (an offline solver's) replaces the live one, the
    pending set is cleared, and the next batch reads the walks back from
    it. *)

val digest : t -> string
(** FNV-1a 64 over a canonical rendering of the whole state — entities,
    capacities, tombstones, sorted conflicts, pairs, MaxSum bits, [seq] and
    [cursor]. Two states with equal digests went through equivalent
    histories; crash-recovery fuzz compares these. *)

(** {2 Persistence}

    What {!Snapshot} writes and reads back. The state holds no rendered
    text: a snapshot renders what it needs on each save. *)

val sim : t -> Geacc_core.Similarity.t

val user : t -> int -> Geacc_core.Entity.t
(** The user with this id as it stands: a departed user is a capacity-0
    tombstone. *)

val event : t -> int -> Geacc_core.Entity.t
(** Likewise; a closed event is a capacity-0 tombstone. *)

val departed : t -> int -> bool
val closed : t -> int -> bool

val conflicts : t -> (int * int) list
(** The conflict pairs [(v, w)] with [v < w], sorted. *)

val dirty_bound : t -> int
(** {!dirty_from} without the cursor cap, [n_users] when nothing is
    pending. A snapshot may be taken while a repair is pending (a
    rejected or degraded batch since the last commit); recovery then
    re-walks every user from here. *)

val restore :
  sim:Geacc_core.Similarity.t ->
  seq:int ->
  cursor:int ->
  dirty:int ->
  users:Geacc_core.Entity.t array ->
  events:Geacc_core.Entity.t array ->
  departed:int list ->
  closed:int list ->
  conflicts:(int * int) list ->
  pairs:(int * int) list ->
  t
(** A state with these contents: the inverse of the accessors above, with
    [dirty] read as {!dirty_bound} and [pairs] the arrangement in lex
    order. The caller has checked them: ids at their array positions, one
    attribute dimension, every id, cursor and bound in range, conflicts
    normalised and distinct. {!dirty_from} of the result equals that of
    the state the values came from. Only the entities, conflicts and
    pairs are kept: the instance, its neighbour lists and the live
    arrangement (each user's walk read back from the pairs) are built on
    first use. *)

type segment = {
  dir : string;  (** The directory of the snapshot it belongs to. *)
  name : string;  (** The segment file's name in [dir]. *)
  bytes : int;  (** The length of its prefix this state's entities fill. *)
  crc : int;  (** {!Journal.crc32} of that prefix. *)
  n_users : int;  (** Users the prefix holds: ids [0, n_users). *)
  n_events : int;
}
(** {!Snapshot}'s record of the entity segment this state was loaded from
    or last saved to. Not part of the state: {!digest} ignores it. *)

val segment : t -> segment option
(** [None] after {!create}, and after {!restore} until a snapshot sets
    one. *)

val set_segment : t -> segment -> unit
