(** Exact nearest-neighbour queries by linear scan.

    O(n log n) per query (a full sort), no preprocessing beyond storing the
    points: the test suite's independent oracle for the {!Ranked} scans
    that serve every neighbour query. Ties in distance are broken by point
    index, so results are deterministic. *)

type t

val create : Point.t array -> t
(** The array is not copied; callers must not mutate the points. *)

val size : t -> int
val point : t -> int -> Point.t

val nearest : t -> Point.t -> k:int -> (int * float) array
(** [nearest t q ~k] returns up to [k] (index, distance) pairs in ascending
    (distance, index) order. *)

val nearest_within : t -> Point.t -> k:int -> max_dist:float -> (int * float) array
(** Like {!nearest} but drops results with distance >= [max_dist]. *)

val nth_nearest : t -> Point.t -> int -> (int * float) option
(** [nth_nearest t q j] is the [j]-th nearest point (1-based), or [None] if
    [j > size t]. *)
