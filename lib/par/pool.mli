(** A placeholder for the retired domain pool.

    The program runs one domain (DESIGN.md §10 records why the pool that
    parallelised MinCostFlow-GEACC's candidate queries was retired). The
    repository benchmark still pins the job count through these two values,
    so they remain until that benchmark is next edited (ROADMAP item 2),
    which deletes both; nothing else should use them. *)

val default_jobs : unit -> int
(** Always 1. *)

val set_default_jobs : int -> unit
(** Accepts only 1, the one job count there is.
    @raise Invalid_argument for any other value. *)
