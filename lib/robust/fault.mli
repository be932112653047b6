(** Deterministic fault injection.

    Robustness paths — timeouts, fallbacks, parse errors — are
    worthless untested, and untestable if faults only occur under real load.
    This module turns the [GEACC_FAULTS] environment variable into a
    deterministic plan of named {e fault points}: instrumented code asks
    {!fire} whether its point triggers on this particular hit, so a CI run
    with a fixed plan replays the exact same degradation on every run.

    {2 Plan grammar}

    A plan is a comma-separated list of entries (spaces allowed):

    {v
    entry ::= point            fire on every hit
            | point@N          fire on the N-th hit only (1-based)
            | point@N+         fire on every hit from the N-th on
    point ::= [a-z0-9_.-]+
    v}

    Example: [GEACC_FAULTS="mcf.alloc@1,timeout.prune@500"] makes the flow
    network build fail once (the MinCostFlow stage raises, and
    [Geacc_core.Anytime]'s chain moves on to its next stage) and forces
    the Prune stage's budget to expire on its 500th poll.

    {2 Conventions}

    Points are lowercase dotted names owned by the instrumented module:
    [io.truncate], [io.corrupt] (instance loading), [io.short_write],
    [journal.corrupt], [serve.crash] (write-ahead journal and serving
    loop), [sim.nan], [sim.huge] (similarity evaluation), [mcf.alloc]
    (flow-network build), and the [timeout.<stage>] family, which is not
    {!fire}d but read through {!param} by [Budget.for_stage] to arm budgets
    with [expire_after_polls]. {!known} lists them with one-line descriptions
    (DESIGN.md's fault table mirrors it); [parse] stays permissive — tests
    install throwaway points — but its errors name the offending token.

    The plan is parsed from the environment once, lazily. A malformed plan
    never aborts the process: it is recorded (see {!plan_error}) and treated
    as empty, and front ends surface the error. When no plan is installed,
    {!active} is [false] and every instrumentation guard is one load and
    branch. *)

exception Injected of { point : string }
(** Raised by {!inject}; carries the fault point that fired. Registered with
    [Printexc] for readable reports. *)

type plan

val known : (string * string) list
(** The instrumented fault points with one-line descriptions, in
    documentation order. [timeout.<stage>] stands for the whole parameter
    family. *)

val parse : string -> (plan, string) result
(** Parses the grammar above. [Error] names the offending entry. The empty
    string is the empty plan. *)

val install : plan -> unit
(** Replaces the active plan and resets all hit counters. *)

val clear : unit -> unit
(** Removes the active plan (and any recorded {!plan_error}). *)

val with_plan : string -> (unit -> 'a) -> 'a
(** [with_plan spec f] parses and installs [spec], runs [f], and restores
    the previous plan and counters afterwards (exception-safe).
    @raise Invalid_argument when [spec] does not parse — test-suite use. *)

val plan_error : unit -> string option
(** The parse error of a malformed [GEACC_FAULTS] value, if any. *)

val active : unit -> bool
(** [true] when a non-empty plan is installed. *)

val fire : string -> bool
(** [fire point] counts one hit of [point] and reports whether the plan
    triggers the fault on this hit. Always [false] (and counts nothing)
    when {!active} is [false]. *)

val inject : string -> unit
(** [inject point] raises {!Injected} when [fire point] is [true]. *)

val param : string -> int option
(** The [N] of the plan entry for [point], without counting a hit — for
    points whose entry is a parameter (e.g. [timeout.<stage>@N] = expire on
    poll [N]) rather than a hit trigger. [None] when the plan has no such
    entry; a bare [point] entry reads as [Some 1]. *)

val hits : string -> int
(** Hits counted for [point] since the plan was installed. *)

val fires : unit -> int
(** Total faults fired (across all points) since the plan was installed. *)
