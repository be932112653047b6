(** Flat bitset over a fixed index range.

    Backs the conflict feasibility probes: conflict rows and per-user
    assigned-event sets are bitsets, so "any conflict between them?"
    is a word-AND scan ({!intersects}) instead of a per-pair membership
    walk. Indices must lie in the [bits] range given at creation —
    unchecked beyond the underlying array bounds. *)

type t

val create : bits:int -> t
(** All-zero set over indices [0 .. bits-1]. *)

val set : t -> int -> unit
val reset : t -> int -> unit
val mem : t -> int -> bool

val intersects : t -> t -> bool
(** [true] iff some index is in both sets. Ranges may differ; the scan
    covers the shorter one. *)

val first_common : t -> t -> int
(** Smallest index in both sets, or -1 when disjoint — the witness for
    error reporting ({!Matching.check_add}'s conflicting event id). *)

val clear : t -> unit

val iter : t -> (int -> unit) -> unit
(** Members in ascending order. Skips zero words. *)

val grow : t -> bits:int -> t
(** A set over at least [bits] indices with the same members: [t] itself
    when its range already covers them, else a zero-extended copy. Lets a
    set follow an index range that only grows (serving-layer events). *)

val copy : t -> t
(** Independent copy ({!Matching.copy} / {!Conflict.copy} support). *)
