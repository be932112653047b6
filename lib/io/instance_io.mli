(** Plain-text (de)serialisation of instances and matchings.

    Instance format (line-oriented, ['#'] comments and blank lines ignored):
    {v
    geacc-instance 1
    sim euclidean <dim> <range>     # or: sim gaussian <sigma> | sim cosine
    events <n>
    <capacity> <attr_1> ... <attr_d>
    ...
    users <n>
    <capacity> <attr_1> ... <attr_d>
    ...
    conflicts <m>
    <event_id> <event_id>
    ...
    v}

    Matching format:
    {v
    geacc-matching 1
    pairs <k>
    <event_id> <user_id>
    ...
    v}

    Custom similarities are not serialisable: saving such an instance
    raises.

    Loading is strict: beyond shape errors, it rejects non-finite attribute
    values, negative capacities, conflict ids out of range, self-conflicts
    and duplicate conflict pairs, each with the precise 1-based line number
    and offending value — a malformed file must never become a silently
    garbage instance. The [_result] variants report the same failures (and
    unreadable files) as structured [Geacc_robust.Error.t] values for
    callers that must not unwind; the exception API remains for the many
    callers whose inputs are trusted build products.

    Fault points (see [Geacc_robust.Fault]): [io.truncate] drops the second
    half of a file's bytes after reading, [io.corrupt] flips its first
    digit to [x] — both deterministically exercise the parse-error paths
    end-to-end. *)

exception Parse_error of { line : int; message : string }

val sim_header : Geacc_core.Similarity.t -> string
(** The [sim ...] header line (no newline) of the instance format, also
    carried verbatim by the serve-mode trace and snapshot formats.
    @raise Invalid_argument on a custom (non-serialisable) similarity. *)

val parse_sim :
  line:int -> string list -> Geacc_core.Similarity.t
(** Parses the argument tokens of a [sim ...] header ([["euclidean"; d; r]],
    [["gaussian"; s]] or [["cosine"]]), the inverse of {!sim_header}.
    Parameters must be finite with [d >= 1], [r > 0] and [s > 0], and the
    squared scale ([d r^2], [2 s^2]) must stay a positive finite number.
    @raise Parse_error (with the given line) on anything else. *)

val save_instance : Geacc_core.Instance.t -> string
val write_instance : path:string -> Geacc_core.Instance.t -> unit

val load_instance : string -> Geacc_core.Instance.t
(** @raise Parse_error on malformed input. *)

val read_instance : path:string -> Geacc_core.Instance.t

val load_instance_result :
  string -> (Geacc_core.Instance.t, Geacc_robust.Error.t) result
(** {!load_instance} with the failure as a value. *)

val read_instance_result :
  path:string -> (Geacc_core.Instance.t, Geacc_robust.Error.t) result
(** {!read_instance} with unreadable-file ([Io_error]) and parse failures
    as values. *)

val save_pairs : (int * int) list -> string
val write_pairs : path:string -> (int * int) list -> unit

val load_pairs : string -> (int * int) list
(** @raise Parse_error on malformed input. *)

val read_pairs : path:string -> (int * int) list
