(** iDistance: reference-point index (Jagadish et al., TODS'05 — the
    paper's reference [7]).

    Points are partitioned by their nearest reference point and stored,
    per partition, sorted by distance to that reference (the one-dimensional
    "iDistance" key that the original system keeps in a B+-tree). A k-NN
    query expands an annulus [dist(q, ref) ± R] in every partition with
    geometrically growing radius R; by the triangle inequality every point
    outside the explored annuli is farther than R, so candidates with exact
    distance <= R can be emitted in exact (distance, index) order. *)

type t

val build : ?n_references:int -> Point.t array -> t
(** [n_references] defaults to [max 1 (min 64 (sqrt n))]. Reference points
    are chosen deterministically by farthest-point sampling. *)

val size : t -> int
val n_references : t -> int

type stream

val stream : t -> query:Point.t -> max_dist:float -> stream
(** Neighbours of [query] in ascending (distance, index) order, restricted
    to distance < [max_dist]. *)

val ranked : stream -> Ranked.t
(** The stream's neighbours as a {!Ranked} memo keyed by distance, which
    the search fills as ranks are asked for. *)

val evaluations : stream -> int
(** Exact-distance computations performed so far by this stream. *)
