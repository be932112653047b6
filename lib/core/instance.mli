(** A GEACC problem instance (paper Definition 5).

    Bundles the event side, the user side, the conflict set and the
    similarity function, and provides the neighbour-enumeration services the
    solvers are built on: the rank-[j] most similar counterpart of a node,
    restricted to strictly positive similarity, in deterministic order
    (descending similarity, ties by id).

    Each querying node is served from one {!Geacc_index.Ranked} scan,
    opened on its first query and kept: it holds the key and id of every
    in-range target and sorts its prefix as deeper ranks are asked for.
    Both sides' lists are keyed by the negated similarity (computed
    through the distance when the similarity has a distance profile, see
    {!Similarity.dist_profile}) and hold the targets of positive
    similarity, so equal similarities rank by id even where they come from
    distinct distances. There is no index to build and
    no index to choose: DESIGN.md §3 records the kd-tree, VA-File and
    iDistance backends that were measured against the scan and retired. *)

type t

val create :
  sim:Similarity.t ->
  events:Entity.t array ->
  users:Entity.t array ->
  conflicts:Conflict.t ->
  unit ->
  t
(** Validates that all attribute vectors share one dimension, that entity
    ids equal their array positions, and that [conflicts] ranges over the
    event ids. @raise Invalid_argument otherwise. *)

val n_events : t -> int
val n_users : t -> int
val event : t -> int -> Entity.t
val user : t -> int -> Entity.t
val events : t -> Entity.t array
val users : t -> Entity.t array
val conflicts : t -> Conflict.t
val similarity : t -> Similarity.t
val dim : t -> int

val sim : t -> v:int -> u:int -> float
(** Interestingness of event [v] for user [u]. *)

val event_capacity : t -> int -> int
val user_capacity : t -> int -> int
val sum_event_capacity : t -> int
val sum_user_capacity : t -> int
val max_event_capacity : t -> int
(** 0 when there are no events. *)

val max_user_capacity : t -> int
(** The α of the approximation ratios; 0 when there are no users. *)

val event_neighbor : t -> v:int -> rank:int -> (int * float) option
(** [event_neighbor t ~v ~rank] is the [rank]-th (1-based) most similar user
    of event [v] as [(user id, similarity)], considering only users with
    positive similarity. [None] when fewer such users exist. *)

val user_neighbor : t -> u:int -> rank:int -> (int * float) option
(** Symmetric: the [rank]-th most similar event of user [u]. *)

val event_user_at : t -> v:int -> rank:int -> int
(** The rank read {!event_neighbor} is built on, without its option and
    tuple: the user at the [rank]-th (1-based) place of [v]'s list, or [-1]
    past its last user of positive similarity. Allocates nothing once
    [v]'s list is open. *)

val event_sim_at : t -> v:int -> rank:int -> float
(** The similarity at a rank {!event_user_at} returned a user for:
    positive, non-increasing in [rank], and bitwise {!sim} of the pair. *)

val prepare_event_queries : t -> unit
(** Builds the event side's neighbour source (the users' points gathered
    into one array, and an empty table of lists), which {!event_neighbor}
    otherwise builds on its first call. Only the repository benchmark calls
    it, to time that step on its own; it goes when the benchmark is next
    edited. *)

val event_candidates :
  t -> v:int -> min_sim:float -> int array * float array
(** The similarity-pruned candidate users of event [v], as parallel arrays
    [(ids, sims)]: every user [u] with [s = sim t ~v ~u], [s > 0] and
    [s >= min_sim]. Indexed instances (similarity with a distance
    profile) return them in ascending distance, equal distances by
    ascending id: descending similarity, the order {!event_neighbor} ranks
    them in except among equal similarities at distinct distances, which
    it ranks by id. They sort the event's scan once, whole. Scanned
    instances return them in ascending user id. Similarities are
    bitwise-identical to {!sim} (when no fault plan is poisoning it). This
    reads no neighbour source and writes no cache. *)

val candidate_users : t -> v:int -> min_sim:float -> (int * float) array
(** {!event_candidates} as [(u, s)] pairs, in the same order. *)

val with_backend : t -> Geacc_index.Nn_backend.t -> t
(** Same instance data with fresh (cold) neighbour caches; the argument is
    {!Geacc_index.Nn_backend.kd_tree}, the only value of its type. The
    original is untouched. Only the repository benchmark calls it; it goes
    when the benchmark is next edited. *)

val with_entities :
  t -> events:Entity.t array -> users:Entity.t array -> conflicts:Conflict.t -> t
(** The same world after it grew or changed capacities, sharing what is
    still valid: each side's array must extend the current one (appended
    entities are validated like {!create}'s; existing ones may change
    capacity). A neighbour source is kept — shared with [t], not copied —
    while its targets keep their count and attribute vectors (compared
    physically) and its querying side keeps its vectors: so arrivals,
    departures (capacity-0 tombstones keeping their vectors), closures and
    capacity changes keep the user-side source (every user's ranked list,
    which then extends to arriving users), and only
    a new event rebuilds it. The event-side source survives only when no
    user arrived. [t] itself is untouched and stays valid.
    @raise Invalid_argument when a side shrank, an appended entity is
    malformed, or [conflicts] ranges over another event count. *)

val neighbor_work : t -> int * int
(** Diagnostic: how many (event-side, user-side) neighbour lists have
    been opened so far on this instance. A source shared through {!with_entities} counts
    the lists opened through every instance sharing it. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line description: sizes, capacities, conflict ratio, similarity. *)
