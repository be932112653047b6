(** VA-File: vector-approximation index (Weber, Schek & Blott, VLDB'98 —
    the paper's reference [8]).

    Each point is quantised to a few bits per dimension over an equi-width
    grid. A query first scans the compact approximations, computing a lower
    bound on every point's distance from per-dimension cell tables, and
    only {e refines} (computes the exact distance of) points whose lower
    bound beats the best exact distances seen so far. In the original
    system this saves disk reads of full vectors; in memory it saves the
    O(d) exact-distance arithmetic, which is what {!refinements} counts.

    Incremental k-NN: candidates are visited in ascending lower-bound
    order; a point is emitted once its exact distance is no greater than
    the next candidate's lower bound, which yields the exact
    (distance, index) order. *)

type t

val build : ?bits_per_dim:int -> Point.t array -> t
(** Quantises the points; [bits_per_dim] in [\[1, 8\]] (default 4, i.e. 16
    cells per dimension). *)

val size : t -> int

val approximation_bytes : t -> int
(** Size of the approximation file: [n · d] bytes (one code byte per
    dimension). *)

type stream

val stream : t -> query:Point.t -> max_dist:float -> stream
(** Neighbours of [query] in ascending (distance, index) order, restricted
    to distance < [max_dist] ([infinity] for unrestricted). *)

val ranked : stream -> Ranked.t
(** The stream's neighbours as a {!Ranked} memo keyed by distance, which
    the filter fills as ranks are asked for. *)

val refinements : stream -> int
(** Exact-distance computations performed so far by this stream; at most
    [size], typically far fewer for shallow ranks. *)
