(** Streaming univariate statistics (Welford's algorithm).

    Used by the benchmark harness to aggregate repeated measurements and by
    tests to check distribution moments without storing samples. *)

type t
(** Mutable accumulator. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** Sample standard deviation; 0 when [count < 2]. *)
  min : float;     (** [nan] when empty. *)
  max : float;     (** [nan] when empty. *)
  sum : float;
}

val create : unit -> t
val add : t -> float -> unit
val add_seq : t -> float Seq.t -> unit
val count : t -> int
val mean : t -> float
val stddev : t -> float
val min : t -> float
val max : t -> float
val sum : t -> float
val summarize : t -> summary
val of_array : float array -> summary
