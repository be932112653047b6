(** Monotone integer priority queue (one-level radix heap).

    A Dial-style bucket queue for non-negative integer keys, specialised
    for the monotone access pattern of Dijkstra with integer reduced
    costs: keys pushed after a pop are never below the popped key. Keys
    and payloads live in parallel unboxed per-bucket arrays grouped by
    the highest bit differing from the floor (the last popped key), so a
    push is a shift-count plus an append and a pop amortises to O(63) —
    no float compares, no sift.

    Pushing a key below the current floor raises [Invalid_argument]; the
    integer Dijkstra kernel satisfies the contract by construction
    (non-negative integer reduced costs). *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> int -> int -> unit
(** [push t key payload] inserts an entry. Raises [Invalid_argument] when
    [key] is below the floor (the largest key popped so far; 0 on a fresh
    or cleared queue). *)

val pop_min : t -> int
(** Removes a minimum-key entry and returns its payload; its key is then
    {!floor}. Allocates nothing: the Dijkstra loop's pop. Payload order
    among equal keys is unspecified. Raises [Invalid_argument] on an
    empty queue. *)

val floor : t -> int
(** The largest key popped so far (0 on a fresh or cleared queue): after
    {!pop_min}, the key of the entry it returned. *)

val pop : t -> (int * int) option
(** Minimum-key entry as [(key, payload)], or [None] when empty.
    Allocates the pair; hot loops use {!pop_min}. *)

val clear : t -> unit
(** Empties and resets the floor to 0 without releasing storage (cheap
    reuse across Dijkstra runs). *)

val check_invariant : t -> bool
(** [true] iff every live entry sits in the bucket its key selects
    against the current floor, no key is below the floor, and the size
    matches the bucket totals (audit hook). *)
