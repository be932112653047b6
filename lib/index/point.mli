(** Points in the d-dimensional attribute space.

    Attribute vectors are dense [float array]s; the neighbour scans and the
    similarity functions share these distance primitives. *)

type t = float array

val dim : t -> int

val dist2 : t -> t -> float
(** Squared Euclidean distance. Requires equal dimensions. *)

val dist : t -> t -> float
(** Euclidean distance. *)

val pp : Format.formatter -> t -> unit
