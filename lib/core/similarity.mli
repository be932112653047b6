(** Interestingness functions (paper Definition 4).

    A similarity maps a pair of attribute vectors to [\[0,1\]]. The paper's
    evaluation uses Equation (1):
    [sim(lv,lu) = 1 - ||lv - lu||_2 / sqrt(d·T²)];
    other functions are explicitly allowed, so this module also provides a
    Gaussian kernel and cosine similarity.

    When a similarity is a decreasing function of Euclidean distance it
    carries a {e distance profile}; {!Instance} then ranks a node's
    neighbours by distance below the profile's cutoff, which is descending
    similarity. Similarities without a profile (e.g. cosine) still work —
    {!Instance} ranks those by the similarity itself. *)

type profile = {
  sim_of_dist : float -> float;
      (** Non-increasing; [sim_of_dist (dist lv lu) = eval lv lu]. *)
  cutoff : float;
      (** Distance at which similarity reaches 0 ([infinity] if it never
          does); pairs at distance >= cutoff can never be matched. *)
}

type t

type spec =
  | Spec_euclidean of { dim : int; range : float }
  | Spec_gaussian of { sigma : float }
  | Spec_cosine
  | Spec_custom of string
      (** Named but otherwise opaque; not serialisable. *)

val spec : t -> spec
(** Structural identity of the similarity, used by serialisation. *)

val name : t -> string
val eval : t -> float array -> float array -> float
val dist_profile : t -> profile option

val euclidean : dim:int -> range:float -> t
(** Paper Equation (1) for vectors in [\[0,range\]^dim]:
    [1 - dist/sqrt(dim·range²)], clamped to [\[0,1\]]. Has a profile with
    cutoff [sqrt(dim·range²)]. *)

val gaussian : sigma:float -> t
(** [exp(-d²/(2σ²))] of the Euclidean distance [d]; strictly positive, so
    every pair is matchable. Profile cutoff is [infinity]. Requires
    [sigma > 0]. *)

val cosine : t
(** Cosine of the angle between the vectors clamped to [\[0,1\]]; 0 when
    either vector is null. No distance profile. *)

val custom :
  name:string -> ?profile:profile -> (float array -> float array -> float) -> t
(** Escape hatch for user-supplied similarities. The function must return
    values in [\[0,1\]]; if [profile] is given it must agree with the
    function on every pair. *)

val pp : Format.formatter -> t -> unit
