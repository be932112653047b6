(** A placeholder for the retired choice of NN index.

    Every neighbour query is a {!Ranked} scan (DESIGN.md §3 and
    EXPERIMENTS.md record the kd-tree, VA-File and iDistance backends that
    were built, measured against the scan and retired). The repository
    benchmark still names the old default through
    {!Geacc_core.Instance.with_backend} to ask for a cold copy of an
    instance, so this type and its one value remain until that benchmark
    is edited; nothing else should use them. *)

type t

val kd_tree : t
(** The only value: passing it to {!Geacc_core.Instance.with_backend}
    means "same data, cold neighbour caches". *)
