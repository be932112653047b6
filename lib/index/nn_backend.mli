(** Pluggable incremental nearest-neighbour backends.

    The paper treats the NN index as a black box with per-query cost σ(S)
    and names iDistance and VA-File as candidates. This module gives all
    indexes one shape — build over a point set, then per query a
    {!Ranked} list of neighbours in ascending (distance, index) order,
    filled on demand — so solvers can be run against any backend and the
    index choice becomes an experimental variable (see the
    [ablation-index] benchmark). A backend's list is either a search's
    memo, which computes only the ranks visited, or a scan, which computes
    the distance to every point once. *)

type index = {
  size : int;
  stream : query:Point.t -> max_dist:float -> Ranked.t;
      (** Keys are distances; [max_dist] is an exclusive cutoff
          ([infinity] for none). *)
}

type t = {
  name : string;
  build : Point.t array -> index;
}

val kd_tree : t
(** The library default. Below dimension 10: {!Kd_tree} + {!Nn_stream},
    best-first incremental search that switches to a scan on deep drains.
    At dimension >= 10, where best-first search expands most of the tree
    for the first neighbour (the VA-File study behind the paper's ref [8]
    found linear scans beating tree indexes above about ten dimensions),
    every stream is a scan and no tree is built. *)

val linear : t
(** One scan per query, sorted progressively — the honest baseline every
    other backend must beat. *)

val va_file : t
(** {!Va_file}: quantised vector approximations with exact refinement. *)

val i_distance : t
(** {!I_distance}: reference-point partitions with expanding-radius
    search. *)

val all : t list
(** Every backend, {!kd_tree} first. *)

val of_string : string -> (t, string) result
(** Parses a backend name: ["kd"], ["linear"], ["vafile"] or
    ["idistance"]. *)
