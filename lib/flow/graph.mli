(** Residual flow network.

    Arcs carry an integer capacity and an integer cost per unit of flow.
    Every call to {!add_arc} also creates the paired residual arc (zero
    capacity, negated cost); pushing flow moves capacity between the pair. Arc ids are
    dense integers; the residual partner of arc [a] is [a lxor 1], forward
    (user-created) arcs are the even ids. *)

type t

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
    breaking the pair-conservation invariant. Fault injection for audit
    tests only — never call this from algorithm code. *)

val flow : t -> arc -> int
(** Flow currently carried by a {e forward} arc: capacity moved to its
    residual partner. Requires an even (forward) arc id. *)

val push : t -> arc -> int -> unit
(** [push g a k] sends [k] units along [a]: decreases [a]'s residual
    capacity, increases its partner's. Requires
    [0 <= k <= residual_capacity g a]. *)

val iter_out_arcs : t -> int -> (arc -> unit) -> unit
(** Iterates all arc ids leaving a node (forward and residual alike), in
    descending arc id; callers filter by {!residual_capacity}. *)

val fold_forward_arcs : t -> init:'a -> f:('a -> arc -> 'a) -> 'a
(** Folds over the user-created (even) arcs in insertion order. *)

(** {2 CSR finalization}

    {!finalize_csr} compacts the arc store into struct-of-arrays
    [dst]/[cost]/[residual_cap] arrays grouped per source node by an offset
    table, so the Dijkstra kernel scans the contiguous position range
    [\[out_begin n, out_end n)] instead of chasing [next] links. Arc ids
    are unchanged — positions carry their arc id ({!pos_arc}), the
    [a lxor 1] residual pairing is untouched, and within a node positions
    enumerate arcs in exactly the order {!iter_out_arcs} would (descending
    arc id). {!push}, {!unsafe_set_residual_capacity} and {!reset_flow}
    keep the positional residual capacities current in place; only
    {!add_arc} invalidates the form (rebuild by calling {!finalize_csr}
    again). *)

val finalize_csr : t -> unit
(** Builds (or rebuilds) the CSR form. O(nodes + arcs); a no-op when the
    form is already current. *)

val csr_valid : t -> bool
(** [true] when the CSR form reflects the current arc store (no arcs added
    since the last {!finalize_csr}). *)

val out_begin : t -> int -> int
(** First CSR position of the arcs leaving a node. Requires {!csr_valid}. *)

val out_end : t -> int -> int
(** One past the last CSR position of the arcs leaving a node. *)

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
    no per-access validity or bounds check. Every such index site must
    carry a stage-4 licence [(* bounds: proved — ... *)] that
    [dune build @bounds] re-proves on every build; while {!csr_valid}
    holds, every position below {!arc_count} is in bounds for every
    slice ([Audit.Flow.check_csr] verifies this at runtime). The slices
    stay current across {!push}/{!reset_flow} and are invalidated by
    {!add_arc}, like every CSR accessor. *)

val unsafe_csr_dst : t -> int array
(** Positional [dst] slice. Requires {!csr_valid}. *)

val unsafe_csr_icost : t -> int array
(** Positional integer-cost slice. Requires {!csr_valid}. *)

val unsafe_csr_cap : t -> int array
(** Positional residual-capacity slice. Requires {!csr_valid}. *)

val unsafe_csr_arc : t -> int array
(** Positional arc-id slice. Requires {!csr_valid}. *)

val reset_flow : t -> unit
(** Returns every arc to zero flow. *)

val excess : t -> int -> int
(** Net inflow minus outflow at a node (flow-conservation check hook). *)
