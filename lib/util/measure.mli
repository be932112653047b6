(** Wall-clock and memory measurement around a computation.

    The paper reports running time and memory cost per algorithm run. Wall
    time comes from [Unix.gettimeofday]. Memory is measured two ways:

    - {!run} reports the {e retained} growth of the live heap across the
      call (cheap, but transient working sets — e.g. a flow network freed on
      return — do not show);
    - {!run_with_peak} additionally samples the live heap from a sampler
      thread during the call, reporting the {e peak} working set.
      Sampling walks the heap, so the wall time of such a run is inflated
      — use a separate {!time}/{!run} call for timing. *)

type sample = {
  wall_s : float;        (** Elapsed wall-clock seconds. *)
  live_bytes : int;      (** Live-heap growth in bytes (>= 0). *)
  top_heap_bytes : int;  (** Growth of the GC top-heap watermark in bytes. *)
}

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with elapsed seconds. *)

val run : (unit -> 'a) -> 'a * sample
(** [run f] measures [f ()] for time and retained memory. Performs two major
    GCs; use {!time} in tight loops. *)

val run_with_peak : (unit -> 'a) -> 'a * int * [ `Exact ]
(** [run_with_peak f] returns [f ()] and the peak live-heap growth in bytes
    observed during the call (at the sampler's polls and at return). The
    mode tag has one value; it stays only because the repository
    benchmark in [bench/suite] matches on it. *)

val live_bytes : unit -> int
(** Current live heap in bytes after a forced major collection. *)

val pp_sample : Format.formatter -> sample -> unit
