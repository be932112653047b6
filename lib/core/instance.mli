(** A GEACC problem instance (paper Definition 5).

    Bundles the event side, the user side, the conflict set and the
    similarity function, and provides the neighbour-enumeration services the
    solvers are built on: the rank-[j] most similar counterpart of a node,
    restricted to strictly positive similarity, in deterministic order
    (descending similarity, ties by id).

    Neighbour enumeration is index-backed: when the similarity has a
    distance profile (see {!Similarity.dist_profile}) a kd-tree per side is
    built lazily and each node materialises only the prefix of neighbours it
    actually visits; otherwise a per-node sorted scan is cached on first
    use. *)

type t

val create :
  sim:Similarity.t ->
  ?backend:Geacc_index.Nn_backend.t ->
  events:Entity.t array ->
  users:Entity.t array ->
  conflicts:Conflict.t ->
  unit ->
  t
(** Validates that all attribute vectors share one dimension, that entity
    ids equal their array positions, and that [conflicts] ranges over the
    event ids. [backend] selects the NN index serving neighbour queries
    (default {!Geacc_index.Nn_backend.kd_tree}); it only applies when the
    similarity has a distance profile. @raise Invalid_argument otherwise. *)

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

val prepare_event_queries : t -> unit
(** Forces the event-side neighbour source (for indexed similarities: the
    NN index over the users) so that subsequent {!candidate_users} calls
    only read shared state. Must run before querying candidates from pool
    workers — the lazy initialisation itself is not thread-safe. *)

val candidate_users : t -> v:int -> min_sim:float -> (int * float) array
(** The similarity-pruned candidate users of event [v]: every [(u, s)] with
    [s = sim t ~v ~u], [s > 0] and [s >= min_sim]. Indexed instances
    (similarity with a distance profile) return them in NN-stream order:
    descending similarity, equal similarities in the order the stream
    yields them, the same order {!event_neighbor} ranks them in. Scanned
    instances return them in ascending user id. Similarities are
    bitwise-identical to {!sim} (when no fault plan is poisoning it).
    Unlike {!event_neighbor} this writes no per-node caches: after
    {!prepare_event_queries}, concurrent calls are safe.
    @raise Invalid_argument before {!prepare_event_queries} has run. *)

val with_backend : t -> Geacc_index.Nn_backend.t -> t
(** Same instance data served by a different NN backend, with fresh (cold)
    neighbour caches. The original is untouched. *)

val with_conflicts : t -> Conflict.t -> t
(** The same instance (entities, similarity, prepared neighbour-query
    state all shared) under a different conflict graph. Used by the
    serving layer to refresh its cached instance on conflict-only
    batches without rebuilding the NN index. *)

val neighbor_work : t -> int * int
(** Diagnostic: how many (event-side, user-side) neighbour streams have
    been opened so far by index-backed solvers on this instance (for
    scanned sources: total entries cached). *)

val pp_summary : Format.formatter -> t -> unit
(** One-line description: sizes, capacities, conflict ratio, similarity. *)
