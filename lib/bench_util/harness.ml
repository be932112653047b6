open Geacc_util
open Geacc_core

type measurement = {
  algorithm : Solver.algorithm;
  maxsum : float;
  matched_pairs : int;
  wall_s : float;
  live_bytes : int;
}

(* The instance's own data with no neighbour list open: a solve on it pays
   for every list it reads, in time and in memory. *)
let cold instance =
  Instance.create ~sim:(Instance.similarity instance)
    ~events:(Instance.events instance) ~users:(Instance.users instance)
    ~conflicts:(Instance.conflicts instance) ()

let measure ?(seed = 42) algorithm instance =
  (* Timing and peak-memory sampling perturb each other, so the algorithm
     runs twice with identically-seeded generators, each on its own cold
     copy built before the measured region starts: once timed, once under
     the memory sampler. *)
  let solve inst =
    let rng = Rng.create ~seed in
    fun () -> Solver.run ~rng algorithm inst
  in
  let matching, wall_s = Measure.time (solve (cold instance)) in
  let peak_matching, peak_bytes, `Exact =
    Measure.run_with_peak (solve (cold instance))
  in
  assert (Matching.size peak_matching = Matching.size matching);
  (match Validate.check_matching matching with
  | [] -> ()
  | violations ->
      let msg =
        Format.asprintf "%s produced an infeasible arrangement: %a"
          (Solver.name algorithm)
          (Format.pp_print_list ~pp_sep:Format.pp_print_space
             Validate.pp_violation)
          violations
      in
      failwith msg (* lint: ok — infeasible solver output is a fatal bug *));
  {
    algorithm;
    maxsum = Matching.maxsum matching;
    matched_pairs = Matching.size matching;
    wall_s;
    live_bytes = peak_bytes;
  }

type aggregate = {
  algorithm : Solver.algorithm;
  trials : int;
  mean_maxsum : float;
  mean_wall_s : float;
  mean_live_bytes : float;
}

let average ~trials ~make_instance algorithms =
  assert (trials >= 1);
  let stats =
    List.map
      (fun algorithm ->
        (algorithm, Stats.create (), Stats.create (), Stats.create ()))
      algorithms
  in
  for seed = 1 to trials do
    let instance = make_instance ~seed in
    List.iter
      (fun (algorithm, s_max, s_time, s_mem) ->
        let m = measure ~seed algorithm instance in
        Stats.add s_max m.maxsum;
        Stats.add s_time m.wall_s;
        Stats.add s_mem (float_of_int m.live_bytes))
      stats
  done;
  List.map
    (fun (algorithm, s_max, s_time, s_mem) ->
      {
        algorithm;
        trials;
        mean_maxsum = Stats.mean s_max;
        mean_wall_s = Stats.mean s_time;
        mean_live_bytes = Stats.mean s_mem;
      })
    stats

let metric which agg =
  match which with
  | `Maxsum -> agg.mean_maxsum
  | `Time_ms -> agg.mean_wall_s *. 1000.
  | `Memory_mb -> agg.mean_live_bytes /. (1024. *. 1024.)

let metric_label = function
  | `Maxsum -> "MaxSum"
  | `Time_ms -> "time (ms)"
  | `Memory_mb -> "memory (MB)"
