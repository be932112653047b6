(** Minimum-cost flow by successive shortest paths (SSP) with potentials.

    Each augmentation pushes flow along a minimum-cost residual path, so
    after the k-th unit the network carries a min-cost flow of amount k —
    the per-Δ prefix property MinCostFlow-GEACC relies on (see DESIGN.md §5).
    Every pass is {!Shortest_path.dijkstra_int} on integer reduced costs
    with exact integer potentials, giving O(F · E · 63) for total flow F. *)

type int_outcome = {
  iflow : int;           (** Total units routed. *)
  icost : int;           (** Total cost of the routed flow. *)
  iaugmentations : int;  (** Number of augmenting paths used. *)
  itimed_out : bool;     (** [true] when [deadline] expired: the flow is a
                             min-cost flow of its (smaller) amount, not of
                             the requested one. *)
}

val overflow_limit : int
(** [2^61], the magnitude every key, potential, path cost and total cost
    of {!solve_int} stays within when its precondition holds. *)

val solve_int :
  Graph.t ->
  source:int ->
  sink:int ->
  ?deadline:Geacc_robust.Budget.t ->
  ?stop_below:int ->
  ?audit_after_dijkstra:(potential:int array -> unit) ->
  ?audit_after_augment:(unit -> unit) ->
  unit ->
  int_outcome option
(** Augments until the sink is unreachable, a path costs [stop_below] or
    more, or [deadline] (default: unlimited) expires. The network must
    carry no flow yet. The deadline is polled once per iteration,
    {e between} augmentations — an expiry never interrupts a path push, so
    the flow left in the graph is always consistent (capacity- and
    conservation-clean) and optimal for its own amount. [stop_below] is
    checked {e before} pushing along a found path: since path costs are
    non-decreasing, refusing once ends the run with the flow untouched by
    that path (this is how MinCostFlow-GEACC stops at the Δ maximising
    MaxSum, passing the quantisation scale). The flow stays in the graph —
    read it back with {!Graph.flow}.

    Returns [None], before touching the graph, when the network is outside
    the kernel's domain. With [C] the largest cost of a capacitated
    forward arc and [n] the node count, the domain is: no capacitated
    forward arc has a negative cost (the all-zero initial potential must
    reduce non-negatively — there is no Bellman–Ford seeding),
    [n * C <= overflow_limit], and the source's out-capacity times the
    largest acceptable path cost ([min (stop_below - 1) ((n - 1) * C)])
    is at most {!overflow_limit}. Inside it no integer operation of the
    solve can overflow (proof in DESIGN.md §15.2).

    The audit hooks default to no-ops and exist so callers can inject
    invariant checkers (see [Geacc_check.Audit]) without this library
    depending on them: [audit_after_dijkstra] fires once per iteration
    right after the potentials are updated, [audit_after_augment] after
    each augmentation's flow push. *)
