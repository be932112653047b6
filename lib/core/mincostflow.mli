(** MinCostFlow-GEACC (paper Algorithm 1, approximation ratio 1/α where α =
    max user capacity).

    Step 1 ignores conflicts: the instance becomes a flow network
    (source → events with capacity [c_v], arc per (v,u) pair with capacity 1
    and cost [1 - sim], users → sink with capacity [c_u]) and the paper's
    sweep of min-cost flows over Δ ∈ [Δ_min, Δ_max] is realised as one
    successive-shortest-path run: after the k-th augmentation the network
    carries the min-cost flow of amount k, and since per-unit path costs are
    non-decreasing, MaxSum(Δ) = Δ − cost(Δ) is concave — the run stops just
    before the first unit whose path cost reaches 1, which is exactly the Δ
    maximising MaxSum. The resulting M_∅ is optimal for CF = ∅ (Lemma 1).

    Step 2 restores feasibility: per user, a greedy max-weight independent
    set over their assigned events (keep in descending similarity, skip
    conflicting).

    {2 The similarity-pruned network}

    The paper's construction gives every (v,u) pair an arc — zero-similarity
    ones included — so it has Θ(|V|·|U|) arcs (the "quartic, not scalable"
    algorithm). Yet the SSP loop stops before any unit whose path cost
    reaches 1, and a zero-similarity arc costs exactly 1, so no unit of the
    final flow ever crosses one: the network here drops them up front via
    the instance's NN-index candidate queries ({!Instance.candidate_users})
    and reaches the same MaxSum on a fraction of the arcs. [min_sim]
    optionally raises the gate from [sim > 0] to [sim >= τ] (a
    quality/speed knob that {e does} change results for τ > 0).

    {2 Integer costs}

    Arc costs [1 - sim] are rounded to the 2^30 grid at build time and the
    SSP loop runs {!Geacc_flow.Mcf.solve_int}: integer Dijkstra over a
    monotone bucket queue with exact integer potentials. Extraction reads
    a pair's similarity back as [1 - q / 2^30]. See DESIGN.md §15. *)

val default_min_sim : unit -> float

val set_default_min_sim : float -> unit
(** Sets the process-wide default similarity gate τ (the CLI's
    [--min-sim] flag).
    @raise Invalid_argument outside [\[0, 1\]]. *)

val cost_scale : int
(** The quantisation grid ([2^30]): arc cost [c] rounds to
    [q = round (c * cost_scale)]. *)

type net = {
  graph : Geacc_flow.Graph.t;
  source : int;
  sink : int;
  pair_arcs : int;    (** (v,u) arcs actually emitted. *)
  dense_pairs : int;  (** |V|·|U|, the paper's arc count. *)
}
(** The Step-1 network. Event [v] is node [1 + v], user [u] is node
    [1 + |V| + u]. *)

type stats = {
  flow_value : int;        (** Δ actually routed (the argmax Δ). *)
  flow_cost : float;       (** Cost of that flow. *)
  augmentations : int;     (** Shortest-path computations that pushed flow. *)
  dropped_pairs : int;     (** Pairs removed by conflict resolution. *)
  pair_arcs : int;         (** (v,u) arcs in the network that was solved. *)
  dense_pairs : int;       (** |V|·|U| for the same instance. *)
  timed_out : bool;        (** [true] when [deadline] stopped the flow sweep
                                early: conflict resolution then ran on a
                                min-cost flow of a smaller Δ, so the result
                                is feasible but may miss the argmax Δ. *)
  int_fallback : bool;
      (** Always [false]: there is one cost kernel and nothing to fall
          back to. The field stays only because the benchmark in
          [bench/suite] reads it. *)
}

val build_network : ?jobs:int -> ?min_sim:float -> Instance.t -> net
(** The Step-1 network. [jobs] (default {!Geacc_par.Pool.default_jobs})
    parallelises the candidate queries per event-chunk; arc emission stays
    sequential, v-major, each event's arcs in {!Instance.candidate_users}
    order (cost-ascending on indexed instances), so arc ids — and hence
    the SSP pivoting order and the final flow — are byte-identical for
    every job count. When a fault plan is active the build runs with
    [jobs = 1] so fault points hit inside the queries fire in plan order.
    Under [GEACC_AUDIT=1] the build additionally proves every pruned pair
    sits below the similarity gate. Exposed for the determinism tests,
    audits and benchmarks.
    @raise Geacc_robust.Fault.Injected when the [mcf.alloc] point fires.
    @raise Invalid_argument when [min_sim] is outside [\[0, 1\]], or when
    a candidate pair's similarity is NaN or above 1 (the error names the
    pair and the value). *)

val solve :
  ?deadline:Geacc_robust.Budget.t ->
  ?jobs:int ->
  ?min_sim:float ->
  Instance.t ->
  Matching.t
(** [deadline] (default: unlimited) is polled between augmentations of the
    underlying SSP loop; on expiry the partial flow — a valid min-cost flow
    of its own amount — is resolved into a feasible matching as usual.
    [jobs] and [min_sim] are passed to {!build_network}. The solve itself
    is sequential and its output independent of the job count.
    @raise Invalid_argument as {!build_network} does. *)

val solve_with_stats :
  ?deadline:Geacc_robust.Budget.t ->
  ?jobs:int ->
  ?min_sim:float ->
  Instance.t ->
  Matching.t * stats
