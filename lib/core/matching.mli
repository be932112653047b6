(** An event-participant arrangement M under construction.

    Tracks, incrementally: pair membership, per-side remaining capacities,
    per-user assigned events (for O(deg) conflict checks) and the running
    MaxSum. Membership lives in the per-user assigned-event bitsets, so it
    does not depend on the side sizes and survives {!extend}. {!add} enforces every GEACC constraint, so a matching built
    through this interface is feasible by construction; solvers that
    backtrack undo with {!remove_exn}. *)

type t

type reject =
  | Event_full
  | User_full
  | Zero_similarity
  | Conflicting_event of int
      (** The user already holds this conflicting event (the smallest id
          among the conflicting ones they hold). *)
  | Duplicate

val create : Instance.t -> t
(** Empty arrangement for the instance. *)

val instance : t -> Instance.t

val extend : t -> Instance.t -> unit
(** Re-points the arrangement at a grown world: the new instance has at
    least as many events and users, and every existing id keeps its
    meaning (capacities may differ — the arrangement is not re-checked
    against them). Pairs, loads and MaxSum carry over; per-side arrays
    grow in place with amortised doubling, so a world that grows by one
    user per step pays O(1) per step. The serving layer keeps its one live
    arrangement current this way instead of re-adding every pair.
    @raise Invalid_argument when the instance has fewer events or users. *)

val check_add : t -> v:int -> u:int -> reject option
(** [None] iff [{v,u}] can be added right now. *)

val add : t -> v:int -> u:int -> (float, reject) result
(** Adds the pair and returns its similarity, or the reason it is
    infeasible. *)

val add_exn : t -> v:int -> u:int -> float
(** @raise Invalid_argument when the pair is infeasible. *)

val remove_exn : t -> v:int -> u:int -> unit
(** Removes a present pair, restoring capacities and MaxSum.
    @raise Invalid_argument when the pair is absent. *)

val mem : t -> v:int -> u:int -> bool
val size : t -> int

val maxsum : t -> float
(** Incrementally-maintained objective. *)

val maxsum_recomputed : t -> float
(** Objective recomputed from scratch (drift oracle for tests). *)

val user_events : t -> int -> int list
(** Events currently assigned to a user (unspecified order). *)

val event_load : t -> int -> int
val user_load : t -> int -> int
val remaining_event_capacity : t -> int -> int
val remaining_user_capacity : t -> int -> int

val user_conflicts_with : t -> u:int -> v:int -> bool
(** Would assigning event [v] to user [u] clash with an event [u] already
    holds? One word-AND scan of [v]'s conflict row against [u]'s
    assigned-event bitset. *)

val pairs : t -> (int * int) list
(** All matched pairs sorted lexicographically. *)

val copy : t -> t
val pp : Format.formatter -> t -> unit

(** {2 Fault injection}

    Test-only escape hatches for the audit layer: they deliberately corrupt
    a matching so the test suite can prove each checker fires. Never call
    these from solver code. *)

val unsafe_add : t -> v:int -> u:int -> unit
(** [add]'s bookkeeping with {e no} feasibility check: capacity overflows,
    conflicts and duplicates are recorded as-is. *)

val unsafe_nudge_maxsum : t -> float -> unit
(** Shifts the cached incremental MaxSum by a delta, creating drift against
    {!maxsum_recomputed}. *)
