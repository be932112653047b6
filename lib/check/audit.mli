(** Opt-in runtime invariant audit for the flow/solver hot paths.

    [Validate.check] runs {e after} a solver finishes, which tells you a run
    went wrong but not which step broke it. The audit layer closes that gap:
    algorithms call the checkers below at their mutation points, guarded by
    {!enabled}, so a violated invariant raises {!Violation} at the exact
    augmentation / pop / add that introduced it.

    Auditing is off by default (the guards cost one branch per hook). It is
    switched on for a whole process by setting the [GEACC_AUDIT] environment
    variable to anything but ["0"], [""] or ["false"], or for one call
    with {!with_enabled} (used by the test suite).

    Checkers for structures owned by [geacc_core] (matchings) live next to
    the structure — see [Validate.audit_matching] — and report through
    {!fail} so every audit failure surfaces as the same exception. *)

exception Violation of { site : string; detail : string }
(** An invariant broke. [site] names the algorithm step that was executing
    (e.g. ["Mincostflow.solve/augment"]), [detail] says which invariant and where. *)

val enabled : unit -> bool
(** Current gate. Initialised from [GEACC_AUDIT] at startup. *)

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Runs the thunk with the gate forced to the given value, restoring the
    previous state afterwards (exception-safe). *)

val violations : unit -> int
(** Process-lifetime count of {!Violation}s raised through {!fail}/{!failf}
    (including ones later caught — e.g. by a fallback harness treating an
    audit failure as a stage fault). Robustness telemetry reports it
    alongside injected-fault counters. *)

val fail : site:string -> string -> 'a
(** Raises {!Violation}. *)

val failf : site:string -> ('a, unit, string, 'b) format4 -> 'a
(** [Printf]-style {!fail}. *)

(** Flow-network invariants, meant to run between augmentations of the
    successive-shortest-path loop. *)
module Flow : sig
  val check_capacity : site:string -> Geacc_flow.Graph.t -> unit
  (** Every arc keeps a non-negative residual capacity, every forward arc
      carries non-negative flow, and each forward/residual pair conserves
      total capacity. *)

  val check_conservation :
    site:string -> Geacc_flow.Graph.t -> source:int -> sink:int -> unit
  (** Net flow is zero at every node other than [source] and [sink], and
      source outflow equals sink inflow. *)

  val check_reduced_costs_int :
    site:string -> Geacc_flow.Graph.t -> potential:int array -> unit
  (** Johnson reduced cost [icost a + pi(src a) - pi(dst a)] is
      non-negative on every arc with residual capacity — the precondition
      for running Dijkstra on the residual network. Exact, zero slack: the
      integer potential update telescopes without roundoff. *)

  val check_sink_potential_max :
    site:string -> potential:int array -> sink:int -> unit
  (** No potential exceeds the sink's: the bound
      {!Geacc_flow.Shortest_path.ssp_pass} reads off the sink instead of
      scanning (DESIGN.md §15.4). *)

  val check_csr :
    site:string -> Geacc_flow.Graph.t -> unit
  (** The CSR form is current and faithful: offsets are monotone and tile
      [\[0, arc_count)], positions are a permutation of the arc ids whose
      dst/icost agree with the arc store, and the positional
      residual capacities mirror the arc-indexed ones (the invariant
      {!Geacc_flow.Graph.push} maintains in place), and every node's slice
      has the documented layout: forward (even) arcs by ascending cost,
      ties by ascending id, then the residual (odd) arcs, with
      [\[res_begin, live_end)] exactly the residual positions of capacity
      > 0, and {!Geacc_flow.Graph.forward_cursor} on the first forward
      position of capacity > 0, or at [res_begin] when there is none. Fails when
      {!Geacc_flow.Graph.csr_valid} is false — run it only after
      [finalize_csr]. *)
end

(** Priority-queue structural invariants. *)
module Heap : sig
  val check_binary : site:string -> 'a Geacc_pqueue.Binary_heap.t -> unit

  val check_bucket :
    site:string -> Geacc_pqueue.Int_bucket_queue.t -> unit
end
