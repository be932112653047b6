(** A query's targets in ascending (key, id) order, addressable by rank and
    filled on demand: the one ranked list every neighbour source serves
    from (the NN backends' streams, {!Geacc_core.Instance}'s similarity
    scans and its candidate queries).

    Two ways in:
    - a {e scan} computes every target's key once, keeps the ones below a
      cutoff in a float array and an int array, and sorts the prefix
      progressively in place: each extension partially quicksorts the next
      chunk (doubling), so a list drained to depth m costs O(n + m log m)
      rather than O(n log n) up front;
    - a {e memo} is appended to in order by a search (a kd-tree cursor, a
      VA-File or iDistance filter) as ranks are asked for. The search may
      turn its memo into a scan once scanning is the cheaper way on.

    Ids are unique within a list, so the (key, id) order is strict and every
    rank is a function of the keys alone: a scan and a memo over the same
    keys serve identical ranks. *)

type t

val scan : n:int -> cutoff:float -> (int -> float) -> t
(** [scan ~n ~cutoff key] ranks targets [0 .. n-1] by [key i], keeping only
    those with [key i < cutoff] (so a NaN key is dropped). [key] is called
    once per target, in ascending id order, before [scan] returns. *)

val memo : (t -> int -> bool) -> t
(** [memo pull] is an empty list that calls [pull t rank] whenever [rank] is
    asked for but not yet held. [pull] either makes progress — {!push}es the
    next entry or {!rescan}s [t] — and returns [true], or returns [false]
    when no target is left, after which the list is complete. *)

val push : t -> int -> float -> unit
(** [push t id key] appends the next entry of a memo; the caller guarantees
    it follows every entry already held in (key, id) order. *)

val rescan : t -> n:int -> cutoff:float -> (int -> float) -> unit
(** Turns [t] into {!scan}[ ~n ~cutoff key] in place. The entries held so
    far are dropped and reproduced by the scan's sort, so ranks keep their
    values when the keys agree. *)

val reach : t -> int -> bool
(** [reach t rank] fills [t] up to the 1-based [rank]; [true] iff that rank
    exists. *)

val id : t -> int -> int
val key : t -> int -> float
(** The id and key at a rank {!reach} returned [true] for. *)

val get : t -> int -> (int * float) option
(** [get t rank] is [Some (id, key)] at [rank], or [None] past the last
    target. *)

val known : t -> int
(** Number of ranks in final order so far. *)
