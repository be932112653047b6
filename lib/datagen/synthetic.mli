(** Synthetic workload generator (paper TABLE III).

    A {!config} mirrors the paper's factor table; {!default} is the bold
    default setting: |V| = 100, |U| = 1000, d = 20, T = 10000, attributes
    Uniform[0,T], c_v ~ Uniform[1,50], c_u ~ Uniform[1,4], conflict ratio
    0.25. Everything is driven by a single seed; equal configs and seeds
    produce equal instances. *)

type attr_model =
  | Attr_uniform                     (** Uniform on [\[0, T\]]. *)
  | Attr_zipf of float               (** Zipf over [\[0, T\]] with the given
                                         exponent (paper uses 1.3). *)
  | Attr_normal_mixture
      (** Even mixture of N(T/4, T/4) and N(3T/4, T/4), truncated to
          [\[0, T\]] — the paper's two Normal settings. *)

type capacity_model =
  | Cap_uniform of int               (** Uniform integers in [\[1, max\]]. *)
  | Cap_normal of float * float      (** N(mu, sigma) rounded, clamped >= 1. *)

type config = {
  n_events : int;
  n_users : int;
  dim : int;
  t_max : float;                     (** T: attribute range. *)
  attrs : attr_model;
  event_capacity : capacity_model;
  user_capacity : capacity_model;
  conflict_ratio : float;            (** |CF| / (|V|·(|V|-1)/2), in [0,1]. *)
}

val default : config

val generate : seed:int -> config -> Geacc_core.Instance.t
(** Builds the instance with the paper's Equation (1) similarity. Generated
    capacities are clamped into [\[1, |U|\]] (events) and [\[1, |V|\]]
    (users), matching the problem statement's assumption; the conflict set
    is a uniform random subset of event pairs of the requested size. *)
