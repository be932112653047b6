(** Crash-atomic, checksummed state snapshots in two files: an append-only
    {e entity segment} and a small {e mutable part}.

    An entity's attribute vector never changes after it arrives, so it is
    written once, into the segment. Everything a batch can change goes
    into the mutable part, rewritten whole on every save:

    {v
    geacc-snapshot 1
    crc <crc32 of everything after this line, %08x>
    geacc-serve-state 3
    seq <n>
    cursor <n>
    dirty <n>
    sim ...
    segment <file name> <referenced bytes> <crc32 of them>
    users <n> <capacity>...          (every user, in id order)
    events <n> <capacity>...
    departed <k> <user id>...
    closed <k> <event id>...
    conflicts <k> <v> <w>...
    pairs <k> <event> <user>...
    v}

    It holds integers only, apart from the [sim] header and the segment's
    name. The segment ([<path>.seg] beside [path]) is
    [geacc-segment 1], then one line per entity in arrival order:
    [u ] or [v ] and the instance format's entity line
    ({!Geacc_io.Instance_io.add_entity}). Its capacity field is the one at
    the time of writing; the mutable part's capacities override it. The
    mutable part names the segment, so that a later compaction can move to
    a new segment file without a format change.

    {2 Save, in write order, and each crash window}

    + Truncate whatever the segment holds past the prefix this state
      references: the tail of a save that crashed after its append.
    + Append the entities that arrived since the last save, fsync the
      segment, and fsync the directory if the file was just created.
      Checkpoint [serve.crash]: a crash here leaves the old mutable part,
      which references only the old prefix, so the new tail is ignored on
      load and truncated by the next save.
    + Write the mutable part to [<path>.tmp] and fsync it. Checkpoint: a
      crash here leaves the old snapshot in force.
    + Rename it over [path] and fsync the directory. Checkpoint: recovery
      sees the new snapshot and a journal not yet truncated, whose records
      it skips as already applied.

    The directory fsync orders the rename before the journal truncation
    that follows [save], so a power cut cannot surface an old snapshot next
    to an already-emptied journal. A save that brings no new entity appends
    nothing and skips the segment's fsync.

    A state saves into the segment it was loaded from or last saved to.
    One that has none in [path]'s directory (a new state, or a migrated
    one) starts the segment afresh, truncating any file of that name:
    saving an unrelated state over a live snapshot is therefore not
    crash-atomic. The serving loop always loads a snapshot before it
    saves one.

    {2 Load}

    {!load} checks the mutable part's CRC, then the segment's referenced
    prefix against the recorded length and CRC. A tail past that prefix is
    ignored. A missing segment, one shorter than its prefix, or a CRC
    mismatch is a [Parse_error] on the mutable part's [segment] line; a
    malformed entity line is one on the segment's own line, with the
    segment named in the message.

    {2 Migration from v2}

    [geacc-serve-state 2], the single-file format before the segment
    (embedded [Instance_io] instance and matching texts), is read only to
    migrate it. User neighbour lists then ranked equal similarities at
    distinct distances by distance, not by id, so its arrangement need
    not be canonical under today's order: the loaded state's dirty bound
    is 0, and its first repair re-walks every user. Its first save writes
    a fresh segment and a v3 mutable part. *)

val save : path:string -> Serve_state.t -> unit
(** Writes as described. The [.tmp] sibling is transient; the segment
    sibling stays. Records the segment in the state
    ({!Serve_state.set_segment}). *)

val load : path:string -> (Serve_state.t, Geacc_robust.Error.t) result
(** Reads a v3 snapshot (or migrates a v2 one) as described. A missing
    mutable part is an error ([Io_error]); callers treat it as "start
    empty". The loaded state holds no rendered text. *)

val exists : path:string -> bool
(** Whether the mutable part exists. *)
