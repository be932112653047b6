(** Structured errors for the robustness layer.

    One closed error type shared by the IO loaders, the online solver's
    input validation and [Geacc_core.Anytime]'s fallback chain, so front
    ends can map every failure to a message and an exit code without
    matching on exception strings. Library entry points return
    [('a, Error.t) result]; raising is reserved for programming errors. *)

type t =
  | Parse_error of { line : int; message : string }
      (** Malformed instance/matching text; [line] is 1-based, 0 when the
          input ended early. *)
  | Io_error of { path : string; message : string }
      (** The file could not be read or written. *)
  | Invalid_input of { what : string; message : string }
      (** A structurally valid value that violates a documented precondition
          (e.g. an online arrival order that is not a permutation). [what]
          names the offending argument. *)
  | Timeout of { stage : string; elapsed_s : float }
      (** A deadline expired before any stage produced a usable result. *)
  | Exhausted of { stages : int; last : string; detail : string }
      (** Every stage of a fallback chain raised; [last] names the final
          stage tried and [detail] its exception. *)

val to_string : t -> string
(** One-line rendering, stable enough to pin in cram tests. *)

val pp : Format.formatter -> t -> unit
