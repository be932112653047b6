(** Best-first kd-tree search served as a {!Ranked} list.

    Greedy-GEACC and Prune-GEACC repeatedly ask for "the j-th nearest
    neighbour of node x" with j advancing independently per node. A stream
    pulls ranks one at a time from a {!Kd_tree.cursor} into a {!Ranked}
    memo, which serves every rank already pulled in O(1).

    Incremental best-first search is ideal for shallow ranks but degrades
    as the frontier stops pruning. The stream therefore turns into a
    {!Ranked} scan (every in-range distance computed once) when either of
    two signals fires: the caller drains past [switch_threshold] ranks, or
    the cursor's frontier work exceeds twice a linear scan. Both produce the
    identical (distance, index) order, so the switch is invisible.
    {!Nn_backend.kd_tree} creates streams only below dimension 10; it
    serves higher dimensions by scans from the start. *)

val create : Kd_tree.t -> Point.t -> ?max_dist:float -> ?switch_threshold:int ->
  unit -> Ranked.t
(** Neighbours of the query in ascending (distance, index) order, cut off at
    [max_dist] (exclusive) when given; keys are distances. [switch_threshold]
    (default 64) is the rank beyond which the stream switches to a scan
    ([0] switches on first access); the frontier-work signal can switch it
    earlier. *)
