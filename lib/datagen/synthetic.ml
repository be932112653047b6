open Geacc_util
open Geacc_core

type attr_model =
  | Attr_uniform
  | Attr_zipf of float
  | Attr_normal_mixture

type capacity_model =
  | Cap_uniform of int
  | Cap_normal of float * float

type config = {
  n_events : int;
  n_users : int;
  dim : int;
  t_max : float;
  attrs : attr_model;
  event_capacity : capacity_model;
  user_capacity : capacity_model;
  conflict_ratio : float;
}

let default =
  {
    n_events = 100;
    n_users = 1000;
    dim = 20;
    t_max = 10000.;
    attrs = Attr_uniform;
    event_capacity = Cap_uniform 50;
    user_capacity = Cap_uniform 4;
    conflict_ratio = 0.25;
  }

let validate cfg =
  if cfg.n_events < 0 || cfg.n_users < 0 then
    invalid_arg "Synthetic.generate: negative cardinality";
  if cfg.dim <= 0 then invalid_arg "Synthetic.generate: dim must be positive";
  if not (Float.is_finite cfg.t_max && cfg.t_max > 0.) then
    invalid_arg "Synthetic.generate: t_max must be positive and finite";
  if not (cfg.conflict_ratio >= 0. && cfg.conflict_ratio <= 1.) then
    invalid_arg "Synthetic.generate: conflict_ratio outside [0,1]"

let attr_sampler cfg =
  match cfg.attrs with
  | Attr_uniform -> Dist.sampler (Dist.uniform 0. cfg.t_max)
  | Attr_zipf exponent ->
      (* Ranks over a grid of T+1 values in [0, T]: small attribute values
         are the popular ones, as in the paper's Zipf setting. *)
      let n = int_of_float cfg.t_max + 1 in
      Dist.sampler (Dist.zipf ~exponent ~n ~lo:0. ~hi:cfg.t_max ())
  | Attr_normal_mixture ->
      let low =
        Dist.sampler
          (Dist.normal ~mu:(cfg.t_max /. 4.) ~sigma:(cfg.t_max /. 4.) ~lo:0.
             ~hi:cfg.t_max ())
      and high =
        Dist.sampler
          (Dist.normal ~mu:(3. *. cfg.t_max /. 4.) ~sigma:(cfg.t_max /. 4.)
             ~lo:0. ~hi:cfg.t_max ())
      in
      fun rng -> if Rng.bool rng then low rng else high rng

let capacity_sampler model ~clamp_hi =
  let clamp c = Stdlib.max 1 (Stdlib.min clamp_hi c) in
  match model with
  | Cap_uniform hi ->
      if hi < 1 then invalid_arg "Synthetic: capacity upper bound < 1";
      fun rng -> clamp (Rng.int_in rng 1 hi)
  | Cap_normal (mu, sigma) ->
      let d = Dist.normal ~mu ~sigma () in
      let sample = Dist.sampler d in
      fun rng -> clamp (int_of_float (Float.round (sample rng)))

let make_side rng cfg n ~capacity_model ~clamp_hi =
  let attr = attr_sampler cfg in
  let capacity = capacity_sampler capacity_model ~clamp_hi in
  Array.init n (fun id ->
      let attrs = Array.init cfg.dim (fun _ -> attr rng) in
      Entity.make ~id ~attrs ~capacity:(capacity rng))

let generate ~seed cfg =
  validate cfg;
  let rng = Rng.create ~seed in
  let event_rng = Rng.split rng in
  let user_rng = Rng.split rng in
  let conflict_rng = Rng.split rng in
  let clamp_cv = Stdlib.max 1 cfg.n_users
  and clamp_cu = Stdlib.max 1 cfg.n_events in
  let events =
    make_side event_rng cfg cfg.n_events ~capacity_model:cfg.event_capacity
      ~clamp_hi:clamp_cv
  in
  let users =
    make_side user_rng cfg cfg.n_users ~capacity_model:cfg.user_capacity
      ~clamp_hi:clamp_cu
  in
  let conflicts =
    Conflict_gen.random conflict_rng ~n_events:cfg.n_events
      ~ratio:cfg.conflict_ratio
  in
  let sim = Similarity.euclidean ~dim:cfg.dim ~range:cfg.t_max in
  Instance.create ~sim ~events ~users ~conflicts ()
