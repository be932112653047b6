(** Declarative fallback chains over anytime stages.

    A chain is an ordered list of stages — typically an expensive exact
    solver first and ever-cheaper approximations after it — run under one
    overall deadline. Each stage receives a {!Budget.t} armed with the
    minimum of its own per-stage timeout and the time remaining overall,
    and returns its result together with a completeness flag ([complete =
    false] means the budget expired and the value is best-so-far). The
    chain stops at the first stage that completes; a stage that times out
    contributes its degraded value as a candidate and the chain falls back
    to the next stage; a stage that raises is a {e fault}, and the chain
    falls through to the next stage without retrying it. The final value
    is the best candidate seen (per [better]),
    tagged {!Complete} only when the chain's head stage completed, i.e. the
    answer is exactly what a patient run would have produced.

    Fault-plan integration: each stage's budget comes from
    {!Budget.for_stage}, so a [timeout.<stage name>@N] plan entry forces it
    to expire on poll [N], which makes mid-search deadlines reproducible in
    CI (see {!Fault}).

    The engine is generic in the problem ['a] and result ['r]: it never
    inspects values, so it lives below the solver libraries and is reused
    by [Geacc_core.Anytime] for matchings. *)

type status = Complete | Degraded

type 'r attempt = { value : 'r; complete : bool }
(** What a stage hands back: its result, and whether it ran to completion
    ([false] = the budget expired and [value] is the best found so far). *)

type ('a, 'r) stage

val stage :
  ?timeout_s:float ->
  ?poll_every:int ->
  name:string ->
  ('a -> budget:Budget.t -> 'r attempt) ->
  ('a, 'r) stage
(** [timeout_s] caps this stage's share of the overall deadline (default:
    no cap beyond the overall remaining time); [poll_every] tunes the
    stage budget's clock-read batching (default 64, use 1 for loops with
    expensive iterations). [name] keys the [timeout.<name>] fault point. *)

val stage_name : ('a, 'r) stage -> string

type verdict =
  | Completed
  | Timed_out
  | Faulted of string  (** The exception, printed. *)

type trace_entry = {
  t_stage : string;
  t_seconds : float;
  t_verdict : verdict;
}

type 'r outcome = {
  value : 'r;
  status : status;
  reason : string option;  (** Why the result is degraded; [None] when complete. *)
  stage : string;          (** Stage that produced [value]. *)
  stages_tried : int;
  fallbacks : int;         (** Stage-to-stage transitions taken. *)
  faults : int;            (** Stages that raised. *)
  elapsed_s : float;
  trace : trace_entry list;  (** Chronological, one entry per stage run. *)
}

val run :
  ?timeout_s:float ->
  ?better:('r -> 'r -> bool) ->
  ('a, 'r) stage list ->
  'a ->
  ('r outcome, Error.t) result
(** Runs the chain on an input. [better incumbent candidate] decides
    whether a later candidate replaces the incumbent (default: never —
    earlier stages win).

    Errors: [Timeout] when the overall deadline expired before any stage
    produced a value; [Exhausted] when every stage faulted;
    [Invalid_input] on an empty chain. *)

val pp_verdict : Format.formatter -> verdict -> unit
