(** Wall-clock and memory measurement around a computation.

    The paper reports running time and memory cost per algorithm run. Wall
    time comes from [Unix.gettimeofday]. Memory is measured two ways:

    - {!run} reports the {e retained} growth of the live heap across the
      call (cheap, but transient working sets — e.g. a flow network freed on
      return — do not show);
    - {!run_with_peak} additionally samples the live heap from a sampler
      thread, reporting the largest growth it saw. What it sees depends
      on when that thread gets to run (see {!run_with_peak}). Sampling
      walks the heap, so the wall time of such a run is inflated — use a
      separate {!time}/{!run} call for timing. *)

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
(** [run_with_peak f] returns [f ()] and the largest live-heap growth in
    bytes among the sampler's readings: those its thread took while [f]
    ran, and one taken after [f] returns. The thread runs only when [f]
    yields the runtime lock, so the number and timing of the readings
    inside the call depend on scheduling: a short call may get none, and
    two calls of the same computation can read orders of magnitude
    apart. Treat the value as one draw, not as the call's peak; ROADMAP.md
    item 3 tracks making it repeatable. The mode tag has one value; it
    stays only because the repository benchmark in [bench/suite] matches
    on it. *)

val live_bytes : unit -> int
(** Current live heap in bytes after a forced major collection. *)
