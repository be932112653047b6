(** Write-ahead journal for the serving loop.

    Durability contract: a batch is appended (and fsynced) {e before} it is
    applied to the in-memory state, so after any crash the snapshot plus the
    journal suffix reconstructs exactly the state an uninterrupted run would
    have reached. The format is text-framed and checksummed:

    {v
    geacc-journal 1
    rec <seq> <len> <crc32>
    <payload — exactly len bytes>
    rec ...
    v}

    where [<crc32>] is the IEEE CRC-32 of the payload in [%08x]. Payloads
    are opaque here (the serving loop stores {!Trace.batch_to_string}
    blocks); [seq] must be strictly increasing.

    Recovery distinguishes the two ways a journal goes bad:

    - a {e torn tail} — the file ends mid-record, the signature of a crash
      during {!append} — is expected and recoverable: {!recover} drops the
      incomplete suffix and truncates the file back to its last complete
      record;
    - a {e corrupt interior} — a complete record whose checksum, framing or
      sequence is wrong, the signature of bit rot or foreign writes — is not
      silently repairable and surfaces as a structured error.

    Fault points (see [Geacc_robust.Fault]): [io.short_write] makes
    {!append} write only half of the framed record, sync it, and crash;
    [journal.corrupt] flips one payload byte of the N-th record as
    {!recover} reads it, driving the checksum-rejection path. *)

type t
(** An open journal, positioned for appending. *)

val crc32 : ?prefix:int -> string -> int
(** IEEE CRC-32 (the zlib/PNG polynomial), as a non-negative int.
    [prefix] is the CRC of bytes that precede [s] (default 0, the CRC of
    none): the result is then the CRC of the concatenation, so a growing
    file's CRC is extended by what is appended. *)

type record = { seq : int; payload : string }

type recovery = {
  records : record list;  (** Every complete, checksummed record, in order. *)
  torn_bytes : int;
      (** Bytes of incomplete tail dropped (0 for a clean shutdown). *)
}

val recover :
  ?deadline:Geacc_robust.Budget.t ->
  path:string ->
  unit ->
  (recovery, Geacc_robust.Error.t) result
(** Reads the journal at [path], truncating any torn tail in place (fsynced)
    so a subsequent {!open_for_append} continues from a clean prefix. A
    missing file is an empty journal. Interior corruption — bad header on a
    complete first line, unparseable record line, checksum mismatch,
    non-increasing [seq] — returns [Error]; so does an expired [deadline]
    (polled once per record). *)

val open_for_append : ?fsync:bool -> path:string -> unit -> t
(** Opens [path] for appending, writing the header if the file is missing or
    empty. [fsync] (default [true]) makes every {!append} and {!truncate}
    flush through to disk; benchmarks disable it to measure the syscall's
    cost. Call after {!recover} — this function does not validate existing
    contents. *)

val append : t -> seq:int -> payload:string -> unit
(** Frames, checksums and appends one record, then syncs. This is the
    serving loop's commit point: once [append] returns, the batch survives
    a crash. *)

val truncate : t -> unit
(** Resets the journal to just its header (after a snapshot made the
    records redundant), syncing the empty state. *)

val close : t -> unit
(** Flushes, syncs and closes. Idempotent. *)
