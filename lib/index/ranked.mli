(** A query's targets in ascending (key, id) order, addressable by rank and
    filled on demand: the one neighbour list every query is served from
    ({!Geacc_core.Instance}'s neighbour lists, keyed by distance or by
    negated similarity, and its candidate queries).

    A list is a {e scan}: it computes every target's key once, keeps the
    ones below a cutoff in a float array and an int array, and sorts the
    prefix progressively in place: each extension partially quicksorts the
    next chunk (doubling), so a list drained to depth m costs
    O(n + m log m) rather than O(n log n) up front.

    Ids are unique within a list, so the (key, id) order is strict and every
    rank is a function of the keys alone. *)

type t

val scan : n:int -> cutoff:float -> (int -> float) -> t
(** [scan ~n ~cutoff key] ranks targets [0 .. n-1] by [key i], keeping only
    those with [key i < cutoff] (so a NaN key is dropped). [key] is called
    once per target, in ascending id order, before [scan] returns. *)

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
