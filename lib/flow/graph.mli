(** Residual flow network.

    Arcs carry an integer capacity and an integer cost per unit of flow.
    Every call to {!add_arc} also creates the paired residual arc (zero
    capacity, negated cost); pushing flow moves capacity between the pair. Arc ids are
    dense integers; the residual partner of arc [a] is [a lxor 1], forward
    (user-created) arcs are the even ids. *)

type t
(** Kept abstract on purpose: outside [graph.ml] no code can name a field
    of [t], so every write to the arc store and its positional CSR mirror
    goes through this interface ({!push}, {!reset_flow}, {!finalize_csr},
    ...) and the two cannot drift apart. The compiler enforces this; the
    [obj-magic] rule of [geacc_lint] closes the one way around it. *)

type arc = int
(** Arc identifier, index into the graph's arc store. *)

val create : num_nodes:int -> t
(** Network over nodes [0 .. num_nodes-1] with no arcs. *)

val node_count : t -> int

val arc_count : t -> int
(** Number of arcs including residual partners (always even). *)

val reserve : t -> arcs:int -> unit
(** Pre-sizes the arc store for [arcs] further {!add_arc} calls (each takes
    two slots: forward + residual partner), so a bulk construction pays one
    allocation instead of a doubling cascade. Purely an optimisation — arc
    ids and contents are unaffected. *)

val add_arc : t -> src:int -> dst:int -> capacity:int -> cost:int -> arc
(** Adds a forward arc and its residual partner; returns the forward arc id.
    Requires [capacity >= 0] and valid node ids. The residual partner
    carries the negated cost. *)

val src : t -> arc -> int
val dst : t -> arc -> int

val icost : t -> arc -> int
(** Integer cost of an arc (the [cost] given to {!add_arc}, negated on
    residual partners). *)

val residual_capacity : t -> arc -> int
(** Remaining capacity of [a] in the residual network. *)

val initial_capacity : t -> arc -> int
(** Capacity of [a] at creation time (0 for residual partners). *)

val unsafe_set_residual_capacity : t -> arc -> int -> unit
(** Overwrites [a]'s residual capacity {e without} touching its partner,
    breaking the pair-conservation invariant (the CSR form, live run
    included, stays current). Fault injection for audit tests only —
    never call this from algorithm code. *)

val flow : t -> arc -> int
(** Flow currently carried by a {e forward} arc: capacity moved to its
    residual partner. Requires an even (forward) arc id. *)

val push : t -> arc -> int -> unit
(** [push g a k] sends [k] units along [a]: decreases [a]'s residual
    capacity, increases its partner's. Requires
    [0 <= k <= residual_capacity g a]. While {!csr_valid} holds it also
    keeps the CSR form current: the positional capacities, and the live
    residual run of the pair's residual arc (an O(1) position swap when
    that arc's capacity crosses zero). *)

val fold_forward_arcs : t -> init:'a -> f:('a -> arc -> 'a) -> 'a
(** Folds over the user-created (even) arcs in insertion order. *)

(** {2 CSR finalization}

    {!finalize_csr} compacts the arc store into struct-of-arrays
    [dst]/[cost]/[residual_cap] arrays grouped per source node by an offset
    table, so the Dijkstra kernel scans contiguous position ranges. Arc
    ids are unchanged — positions carry their arc id ({!pos_arc}) and the
    [a lxor 1] residual pairing is untouched. Each node's slice
    [\[out_begin n, out_end n)] is laid out in three runs:

    - [\[out_begin n, res_begin n)]: the forward (even) arcs, by ascending
      {!icost}, ties by ascending arc id;
    - [\[res_begin n, live_end n)]: the residual (odd) arcs with residual
      capacity > 0, in no particular order;
    - [\[live_end n, out_end n)]: the other residual arcs.

    Each node also keeps a {e cursor}, {!forward_cursor}: its first
    forward position with capacity > 0, or [res_begin n] when the whole
    forward run is saturated. Every forward position before it has zero
    capacity.

    {!push}, {!unsafe_set_residual_capacity} and {!reset_flow} keep the
    positional residual capacities, the live run and the cursor current in
    place; forward arcs never move, residual arcs move only across the
    live-run boundary. Only {!add_arc} invalidates the form (rebuild by
    calling {!finalize_csr} again). *)

val finalize_csr : t -> unit
(** Builds (or rebuilds) the CSR form; a no-op when the form is already
    current. O(nodes + arcs) when every forward run already arrives in
    cost order, as the GEACC network builder emits them on indexed
    instances; a run that does not is heap-sorted in place, O(k log k)
    for a run of [k] arcs. *)

val csr_valid : t -> bool
(** [true] when the CSR form reflects the current arc store (no arcs added
    since the last {!finalize_csr}). *)

val out_begin : t -> int -> int
(** First CSR position of the arcs leaving a node. Requires {!csr_valid}. *)

val out_end : t -> int -> int
(** One past the last CSR position of the arcs leaving a node. *)

val res_begin : t -> int -> int
(** First residual position of a node's slice: one past its forward run.
    [out_begin n <= res_begin n <= live_end n <= out_end n]. Requires
    {!csr_valid}. *)

val live_end : t -> int -> int
(** One past the last live residual position of a node's slice: the
    positions [\[res_begin n, live_end n)] hold exactly the node's
    residual arcs with capacity > 0. Requires {!csr_valid}. *)

val forward_cursor : t -> int -> int
(** A node's first forward position with residual capacity > 0, or
    {!res_begin} when it has none:
    [out_begin n <= forward_cursor n <= res_begin n]. Requires
    {!csr_valid}. *)

val pos_dst : t -> int -> int
(** Destination of the arc at a CSR position. *)

val pos_icost : t -> int -> int
(** Integer cost of the arc at a CSR position. *)

val pos_residual_capacity : t -> int -> int
(** Residual capacity of the arc at a CSR position — kept current by
    {!push}/{!reset_flow} while the form is valid. *)

val pos_arc : t -> int -> arc
(** Arc id stored at a CSR position. *)

val arc_position : t -> arc -> int
(** CSR position of an arc id (inverse of {!pos_arc}). Requires
    {!csr_valid}. *)

(** {3 Raw CSR slices}

    The [unsafe_csr_*] accessors hand the traversal kernels the positional
    arrays themselves: one {!csr_valid} assert at fetch time, then the
    caller indexes positions from [\[out_begin n, out_end n)] ranges with
    no per-access validity or bounds check. The per-node arrays behind
    {!res_begin}, {!live_end} and {!forward_cursor} come the same way, so
    a kernel reads a node's slice bounds without a call per node; their
    values are positions in [\[0, arc_count\]]. Every such index site must
    carry a stage-4 licence [(* bounds: proved — ... *)] that
    [dune build @bounds] re-proves on every build; while {!csr_valid}
    holds, every position below {!arc_count} is in bounds for every
    slice ([Audit.Flow.check_csr] verifies this at runtime). The slices
    stay current across {!push}/{!reset_flow} (which may swap two residual
    positions of one node) and are invalidated by {!add_arc}, like every
    CSR accessor. *)

val unsafe_csr_dst : t -> int array
(** Positional [dst] slice. Requires {!csr_valid}. *)

val unsafe_csr_icost : t -> int array
(** Positional integer-cost slice. Requires {!csr_valid}. *)

val unsafe_csr_cap : t -> int array
(** Positional residual-capacity slice. Requires {!csr_valid}. *)

val unsafe_csr_arc : t -> int array
(** Positional arc-id slice. Requires {!csr_valid}. *)

val unsafe_csr_res : t -> int array
(** Per-node {!res_begin}, [node_count] entries. Requires {!csr_valid}. *)

val unsafe_csr_live : t -> int array
(** Per-node {!live_end}, [node_count] entries. Requires {!csr_valid}. *)

val unsafe_csr_cursor : t -> int array
(** Per-node {!forward_cursor}, [node_count] entries. Requires
    {!csr_valid}. *)

val reset_flow : t -> unit
(** Returns every arc to zero flow (and so empties every live run). *)

val excess : t -> int -> int
(** Net inflow minus outflow at a node (flow-conservation check hook). *)
