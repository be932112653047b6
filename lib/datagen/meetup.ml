open Geacc_util
open Geacc_core

type city = { name : string; n_events : int; n_users : int }

let vancouver = { name = "Vancouver"; n_events = 225; n_users = 2012 }
let auckland = { name = "Auckland"; n_events = 37; n_users = 569 }
let singapore = { name = "Singapore"; n_events = 87; n_users = 1500 }
let cities = [ vancouver; auckland; singapore ]

type capacity_setting = Cap_uniform | Cap_normal

let n_merged_tags = 20

(* An entity's interests are drawn from a Zipf-skewed palette of merged
   tags: a handful of popular topics dominate, mirroring the paper's
   observation that tags like "outdoor" aggregate many original tags. *)
let tag_vector rng ~tag_dist =
  let total_tags = Rng.int_in rng 2 15 in
  let counts = Array.make n_merged_tags 0 in
  for _ = 1 to total_tags do
    let tag = int_of_float (tag_dist rng) in
    counts.(tag) <- counts.(tag) + 1
  done;
  Array.map (fun c -> float_of_int c /. float_of_int total_tags) counts

let capacity_samplers setting =
  match setting with
  | Cap_uniform ->
      ( (fun rng -> Rng.int_in rng 1 50),
        fun rng -> Rng.int_in rng 1 4 )
  | Cap_normal ->
      let cv = Dist.sampler (Dist.normal ~mu:25. ~sigma:12.5 ())
      and cu = Dist.sampler (Dist.normal ~mu:2. ~sigma:1. ()) in
      ( (fun rng -> Stdlib.max 1 (int_of_float (Float.round (cv rng)))),
        fun rng -> Stdlib.max 1 (int_of_float (Float.round (cu rng))) )

let generate ~seed ?(capacities = Cap_uniform) ?(conflict_ratio = 0.25) city =
  if not (conflict_ratio >= 0. && conflict_ratio <= 1.) then
    invalid_arg "Meetup.generate: conflict_ratio outside [0,1]";
  let rng = Rng.create ~seed in
  let event_rng = Rng.split rng in
  let user_rng = Rng.split rng in
  let conflict_rng = Rng.split rng in
  let tag_dist =
    Dist.sampler
      (Dist.zipf ~exponent:1.0 ~n:n_merged_tags ~lo:0.
         ~hi:(float_of_int (n_merged_tags - 1)) ())
  in
  let sample_cv, sample_cu = capacity_samplers capacities in
  let clamp hi c = Stdlib.min hi c in
  let events =
    Array.init city.n_events (fun id ->
        Entity.make ~id
          ~attrs:(tag_vector event_rng ~tag_dist)
          ~capacity:(clamp city.n_users (sample_cv event_rng)))
  in
  let users =
    Array.init city.n_users (fun id ->
        Entity.make ~id
          ~attrs:(tag_vector user_rng ~tag_dist)
          ~capacity:(clamp city.n_events (sample_cu user_rng)))
  in
  let conflicts =
    Conflict_gen.random conflict_rng ~n_events:city.n_events
      ~ratio:conflict_ratio
  in
  let sim = Similarity.euclidean ~dim:n_merged_tags ~range:1. in
  Instance.create ~sim ~events ~users ~conflicts ()
