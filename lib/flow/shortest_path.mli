(** Single-source shortest paths over the residual network.

    Only arcs with positive residual capacity participate. The search
    fills, per node, the distance and the arc through which the node was
    reached (for path recovery). *)

val dijkstra_int :
  Graph.t ->
  source:int ->
  pi:int array ->
  dist:int array ->
  parent_arc:int array ->
  queue:Geacc_pqueue.Int_bucket_queue.t ->
  ?stop_at:int ->
  unit ->
  unit
(** Dijkstra over the integer reduced costs
    [icost a + pi(src a) - pi(dst a)], which must be non-negative for arcs
    with residual capacity (Johnson's trick; asserted, not clamped), with a
    monotone bucket queue. The distances left in [dist] are the
    {e reduced} distances ([max_int] for unreachable nodes); callers
    converting back to true distances add [pi(dst) - pi(source)].
    [parent_arc] holds the arc into each node on a shortest path, -1 at
    the source and at unreachable nodes.

    With [stop_at] the search halts as soon as that node is settled; its
    distance and parents along its shortest path are exact, as is every
    distance below it, while other entries are tentative upper bounds,
    never below [stop_at]'s distance — which is exactly the property the
    min-cost-flow potential update
    [pi(v) <- pi(v) + min(dist(v), dist(stop_at))] needs. Two exact-
    arithmetic shortcuts: no [settled] array (a popped entry is live iff
    its key equals the node's distance, and a settled node can never
    re-improve) and a goal bound (relaxations strictly above [stop_at]'s
    tentative distance are dropped; they cannot reach a shortest
    [stop_at] path, and the potential update caps at that distance
    anyway, so later passes are unaffected).

    Relaxation is lazy and reads the slice layout of {!Graph.finalize_csr}.
    A settled node relaxes its live residual run at once, then walks its
    cost-ascending forward run, from its {!Graph.forward_cursor} on, only
    while
    [dist u + icost a + pi(u) - max pi] — a lower bound on the key the arc
    would produce — is at most the popped key; the rest of the run waits
    in the queue as one entry keyed by that bound (or is dropped when the
    bound exceeds [stop_at]'s tentative distance) and resumes when popped.
    The settled distances, hence the potentials the update above
    computes, are exactly a full scan's; among exactly tied shortest
    paths [parent_arc] may pick a different one (DESIGN.md §15.4).

    Every key must fit the queue: {!Mcf.solve_int} checks the overflow
    precondition once per solve (see DESIGN.md §15).

    [dist], [parent_arc] and [queue] are caller-owned scratch (arrays of
    exactly [node_count] entries, asserted at entry — the stage-4 bounds
    proofs rest on it); the kernel re-initialises them. This entry point
    takes any feasible [pi], so it scans it once for its largest entry;
    {!ssp_pass} runs the same kernel without that scan or the full
    re-initialisation. *)

(** {2 Repeated passes} *)

type scratch
(** Per-solve state of repeated passes over one graph: the distances and
    parent arcs of the last pass, the resume positions of its deferred
    walks, the list of nodes it reached, and the queue. *)

val scratch : nodes:int -> scratch
(** Fresh state for a graph of [nodes] nodes: every distance [max_int],
    every parent arc -1. *)

val dist : scratch -> int array
(** The last pass's reduced distances, as {!dijkstra_int} leaves them. *)

val parent_arc : scratch -> int array
(** The last pass's parent arcs, as {!dijkstra_int} leaves them. *)

val ssp_pass :
  Graph.t -> scratch -> source:int -> sink:int -> pi:int array -> unit
(** [dijkstra_int ~stop_at:sink] on the state's arrays, with the same
    pops, parents and distances, for a [pi] whose largest entry is
    [pi.(sink)]. The SSP's potential update keeps that so (DESIGN.md
    §15.4), and the pass reads the walk's bound there instead of scanning.
    It resets only the nodes the previous pass on the same state
    reached. *)
