(** A query's targets in ascending (key, id) order, addressable by rank and
    filled on demand: the one neighbour list every query is served from
    ({!Geacc_core.Instance}'s neighbour lists, keyed by distance or by
    negated similarity, and its candidate queries).

    A list is a {e scan}: it computes every target's key once, keeps the
    ones below a cutoff in a float array and an int array, and sorts the
    prefix progressively in place: each extension doubles the sorted
    prefix by partially quicksorting the whole unsorted rest again. So a
    list drained to depth m costs O(n log m) expected: O(n) to key it,
    plus O(n) partition work at each of its O(log m) doublings. That is
    less than an O(n log n) sort up front when m is small, but more than
    the O(n + m log m) an incremental quicksort that kept its pivots
    would cost (ROADMAP item 5).

    Ids are unique within a list, so the (key, id) order is strict and every
    rank is a function of the keys alone. *)

type t

val scan : n:int -> cutoff:float -> (int -> float) -> t
(** [scan ~n ~cutoff key] ranks targets [0 .. n-1] by [key i], keeping only
    those with [key i < cutoff] (so a NaN key is dropped). [key] is called
    once per target, in ascending id order, before [scan] returns. *)

val length : t -> int
(** Number of targets kept (those below the cutoff): the last rank.
    [reach t (length t)] sorts the whole list in one pass. *)

val reach : t -> int -> bool
(** [reach t rank] sorts [t] up to the 1-based [rank]; [true] iff that rank
    exists. *)

val id : t -> int -> int
val key : t -> int -> float
(** The id and key at a rank {!reach} returned [true] for. *)

val get : t -> int -> (int * float) option
(** [get t rank] is [Some (id, key)] at [rank], or [None] past the last
    target. *)

val known : t -> int
(** Number of ranks in final order so far. *)
