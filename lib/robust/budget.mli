(** Cooperative time budgets for anytime solvers.

    A budget is an absolute deadline plus a cheap polling protocol: the
    solver calls {!check} once per iteration of its hot loop; the budget
    reads the clock only every [poll_every] calls, so an armed budget costs
    one predictable-branch counter decrement per iteration. Once a budget
    reports expiry it stays expired (sticky), which is what lets a solver
    unwind to a consistent checkpoint and return its best feasible result so
    far instead of racing the clock on the way out.

    Clock: [Unix.gettimeofday]. The platform exposes no monotonic clock to
    this OCaml version, so a large backwards wall-clock step can delay an
    expiry; deadlines are best-effort in that one case, and deterministic
    tests use {!create}'s [expire_after_polls] instead of the clock.

    Budgets are single-solver values: {!check} mutates counters and is not
    thread-safe. {!unlimited} is the shared disarmed budget; polling it is a
    single load-and-branch and mutates nothing.

    Polling is a static obligation, not a convention: [geacc_analyze]
    ([dune build @analyze], rule [poll-missing]) requires every outermost
    loop under [lib/core] / [lib/flow] to reach {!check} or {!check_now}
    in its call closure, so a solver hot loop that cannot be cancelled by
    a deadline fails the build. See DESIGN.md §12. *)

type t

val unlimited : t
(** Never expires. [check unlimited] is [false] forever and keeps no
    counters. *)

val create :
  ?poll_every:int -> ?expire_after_polls:int -> timeout_s:float -> unit -> t
(** A budget expiring [timeout_s] seconds from now. [poll_every] (default
    64) is how many {!check} calls share one clock read. A non-positive
    [timeout_s] expires on the first poll. [expire_after_polls], meant for
    deterministic fault injection, forces expiry on the given (1-based)
    {!check} call regardless of the clock.
    @raise Invalid_argument when [poll_every < 1] or
    [expire_after_polls < 1]. *)

val armed : t -> bool
(** [false] only for {!unlimited}. *)

val check : t -> bool
(** Polls the budget: [true] once the deadline has passed (sticky). Reads
    the clock on the first call and then every [poll_every]-th call. *)

val check_now : t -> bool
(** {!check} with an unconditional clock read — for loops whose iterations
    are expensive enough (e.g. one flow augmentation) that batching clock
    reads would overshoot the deadline. *)

val expired : t -> bool
(** Sticky expiry flag, without polling. *)

val expire : t -> unit
(** Forces expiry (used to propagate a parent deadline into a sub-solver). *)

val remaining_s : t -> float
(** Seconds until the deadline ([infinity] when disarmed, [0.] once
    expired). Reads the clock. *)

val polls : t -> int
(** Number of {!check}/{!check_now} calls so far. *)

val clock_reads : t -> int
(** Number of those polls that actually read the clock. *)

val now_s : unit -> float
(** The budget clock, exposed for elapsed-time accounting in harnesses. *)
