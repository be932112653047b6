(** Deadline-aware solving with a quality-first fallback chain.

    The paper's own evaluation (Fig 6) shows the exact solvers blowing up
    super-exponentially while Greedy/MinCostFlow stay cheap — so a serving
    deployment wants "the best answer you can find by the deadline", not
    "the optimal answer whenever it is ready". {!solve} tries a list of
    algorithms in order under one overall time budget, each stage through
    {!Solver.run} under its own budget. A stage either completes (the chain
    stops), contributes a degraded best-so-far matching, or faults (raises)
    and falls through without a retry. The final matching is the best
    candidate by MaxSum, tagged {!Complete} only when the head stage
    finished untimed. Every stage's output — degraded or not — is audited
    [Validate]-clean under [GEACC_AUDIT=1] before it becomes a candidate.

    The default chain is quality-first: {!Solver.Exhaustive} →
    {!Solver.Prune} → {!Solver.Min_cost_flow} → {!Solver.Greedy}. A stage's
    budget is the overall time remaining, capped by the stage timeout when
    one is given. So without a stage timeout the head stage may use the
    whole budget: when the deadline expires inside Exhaustive, its
    incumbent is served and no cheaper stage runs, even where Greedy would
    have found a better matching in a fraction of the time. A stage
    timeout below the overall one leaves time for the tail. *)

type status = Complete | Degraded

type verdict =
  | Completed
  | Timed_out
  | Faulted of string  (** The exception, printed. *)

type trace_entry = {
  t_stage : Solver.algorithm;
  t_seconds : float;
  t_verdict : verdict;
}

type report = {
  matching : Matching.t;
  status : status;
  reason : string option;        (** Why degraded; [None] when complete. *)
  algorithm : Solver.algorithm;  (** Stage that produced [matching]. *)
  stages_tried : int;            (** One more than the fallbacks taken. *)
  faults : int;                  (** Stages that raised. *)
  elapsed_s : float;
  trace : trace_entry list;      (** Chronological, one entry per stage run. *)
}

val default_chain : Solver.algorithm list
(** [[Exhaustive; Prune; Min_cost_flow; Greedy]]. *)

val solve :
  ?timeout_s:float ->
  ?stage_timeout_s:float ->
  ?seed:int ->
  ?algorithms:Solver.algorithm list ->
  Instance.t ->
  (report, Geacc_robust.Error.t) result
(** Runs the chain ([algorithms] defaults to {!default_chain}; a singleton
    list gives plain time-budgeted solving). [timeout_s] bounds the whole
    run, [stage_timeout_s] additionally caps each stage. Each stage's
    budget comes from {!Geacc_robust.Budget.for_stage} under the
    algorithm's {!Solver.short_name}, so a [timeout.<name>@N] fault plan
    entry forces it to expire on poll [N]; the stage counts as complete
    when that budget did not expire. Each stage draws from a fresh
    generator seeded with [seed] (default 42), as {!Solver.run} does by
    default.

    A later candidate replaces the incumbent only with a strictly higher
    MaxSum. Errors: [Timeout] when the overall deadline expired before any
    stage produced a matching, [Exhausted] when every stage faulted, and
    [Invalid_input] on an empty list. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** ["completed"], ["timed out"] or ["faulted: <exception>"], as the CLI's
    trace table prints it. *)
