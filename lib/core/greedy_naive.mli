(** Reference implementation of Greedy-GEACC without the index machinery.

    Materialises {e every} positive-similarity pair, sorts them once in
    descending similarity (ties by event then user id) and adds each
    feasible pair in order. This processes candidate pairs in exactly the
    order Algorithm 2 pops them from its heap, and feasibility at
    processing time is monotone, so the arrangement is {e identical} to
    {!Greedy.solve} — which makes this both a cross-checking oracle in the
    test suite and the ablation baseline ([ablation-greedy], which exits 1
    on any difference) quantifying what walking the events' neighbour lists
    buys (a full sort of Θ(|V|·|U|) pairs vs. sorting only the prefix of
    each list that is visited). *)

val solve : Instance.t -> Matching.t
