(** Experiment harness: run algorithms over instances and aggregate the
    paper's three metrics (MaxSum, running time, memory).

    Each measurement validates the produced arrangement — a benchmark run
    doubles as an end-to-end feasibility check — and repeated trials with
    distinct seeds are averaged, mirroring the paper's averaged plots. *)

type measurement = {
  algorithm : Geacc_core.Solver.algorithm;
  maxsum : float;
  matched_pairs : int;
  wall_s : float;
  live_bytes : int;   (** Peak live-heap growth during the solve call. *)
}

val measure :
  ?seed:int -> Geacc_core.Solver.algorithm -> Geacc_core.Instance.t ->
  measurement
(** Runs the algorithm twice with identical seeds — once timed, once under
    the peak-memory sampler (see {!Geacc_util.Measure.run_with_peak}) — and
    validates the output. Each run solves its own cold copy of the
    instance (the same data, no neighbour list open), built before the
    measured region starts: the time and memory are the solve's alone,
    including every list it opens, whatever earlier solves did to the
    instance passed in.
    @raise Failure if the output is infeasible. *)

type aggregate = {
  algorithm : Geacc_core.Solver.algorithm;
  trials : int;
  mean_maxsum : float;
  mean_wall_s : float;
  mean_live_bytes : float;
}

val average :
  trials:int ->
  make_instance:(seed:int -> Geacc_core.Instance.t) ->
  Geacc_core.Solver.algorithm list ->
  aggregate list
(** [average ~trials ~make_instance algos] builds [trials] instances with
    seeds 1..trials and {!measure}s every algorithm on each, with the
    trial's seed; per-algorithm means, in the order given. *)

val metric :
  [ `Maxsum | `Time_ms | `Memory_mb ] -> aggregate -> float
(** Projects an aggregate onto one of the paper's plot axes. *)

val metric_label : [ `Maxsum | `Time_ms | `Memory_mb ] -> string
