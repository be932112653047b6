(** The [geacc serve] engine: a crash-safe loop over timestamped batches.

    For every admitted batch the loop (1) appends the batch to the
    write-ahead journal and fsyncs — the durability point — then (2)
    applies it to the state, (3) repairs the arrangement under the batch
    deadline through a [Geacc_robust.Chain] (propagation from the users
    the batch touched first, a full re-walk as fallback; transient faults
    retried with backoff), (4) commits and acknowledges, and (5) once [snapshot_every]
    journal appends have accumulated since the last truncation (recovered
    backlog included) snapshots the state and truncates the journal — the
    cadence counts appends, not applied batches, so rejected and
    repair-failing batches cannot grow the journal without bound. Startup
    recovery loads the snapshot (if any), replays the journal suffix —
    skipping records at or below the snapshot's sequence number and
    re-rejecting invalid batches exactly as the live run did — and repairs
    with an unlimited budget, so a crashed-and-recovered run reaches the
    same digest as an uninterrupted one. Input batches are admitted only
    above the highest {e journaled} sequence number (not merely the
    highest applied one): a rejected batch is journaled without advancing
    the applied seq, and journaling it again on restart would violate the
    journal's strict seq monotonicity.

    Crash checkpoints ([serve.crash@N] kills the N-th): after the journal
    append, after the in-memory commit (pre-ack), three inside
    [Snapshot.save] (after the entity segment's append, and around the
    mutable part's rename) and after the journal truncate.
    [io.short_write] additionally crashes mid-append with a torn record.
    These exceptions propagate out of {!run} — the process {e is} the
    crash site; the recovery fuzz re-runs {!run} against the surviving
    state directory.

    Health: [Healthy] until a batch cannot be completed in time, [Degraded]
    until a batch again completes fully (while degraded, admission sheds
    every [Optional] batch), [Draining] once the input is exhausted. *)

type mode = Incremental | Full | Offline

val mode_name : mode -> string
(** ["incremental"] / ["full"] / ["offline"]. *)

val mode_of_string : string -> mode option

type health = Healthy | Degraded | Draining

val health_name : health -> string
(** ["ok"] / ["degraded"] / ["draining"]. *)

type config = {
  state_dir : string;
      (** Holds [journal.wal], [snapshot.geacc] and its entity segment
          [snapshot.geacc.seg]. *)
  mode : mode;
  dirty_threshold : float;
      (** Ignored by the loop: repair always propagates from the touched
          users, which is never costlier than a full replay. The field
          (default [infinity]) remains only because the benchmark's serve
          replica reads it; it goes when ROADMAP item 2 deletes the
          replicas. *)
  batch_timeout_s : float;  (** Per-batch deadline; [<= 0] = unlimited. *)
  queue_cap : int;  (** Admission bound per timestamp group. *)
  snapshot_every : int;
      (** Snapshot cadence in journal appends since the last truncation;
          [<= 0] = never. *)
  max_retries : int;  (** Chain retries for transient faults. *)
  backoff_s : float;
  fsync : bool;  (** [false] trades durability for journal speed (bench). *)
}

val default : state_dir:string -> config
(** Incremental mode, no deadline, queue cap 64, snapshot
    every 32 journal appends, 2 retries, no backoff, fsync on. *)

type report = {
  batches : int;  (** Batches in the input trace. *)
  admitted : int;
  shed : int;
  skipped : int;  (** Already journaled before this run (recovery overlap). *)
  applied : int;
  errors : int;  (** Batches rejected by validation. *)
  degraded_batches : int;
  full_replays : int;  (** Committed repairs that re-walked every user. *)
  rewalked : int;  (** Users re-walked by the committed repairs. *)
  snapshots : int;
  retries : int;
  replayed : int;  (** Journal records replayed during startup recovery. *)
  latencies_s : float list;
      (** Per-admitted-batch wall seconds, in batch order. *)
  journal_s : float;  (** Total wall time inside journal appends. *)
  health : health;
  digest : string;
  maxsum : float;
  seq : int;
}

val exit_status : report -> int
(** 0 clean; 3 when anything was degraded or shed (the structured-error
    contract's degraded code); 1 when any batch errored. *)

val run :
  config -> out:out_channel -> Trace.t -> (report, Geacc_robust.Error.t) result
(** Recovers, serves the trace, drains. Emits one line per event on [out]:
    [start], [ok], [degraded], [shed], [error], [stats], [snapshot] and a
    final [done] line (all deterministic — no wall-clock values). [Error]
    is reserved for unrecoverable startup failures: unreadable or corrupt
    snapshot/journal. Crash-injection exceptions propagate. *)
