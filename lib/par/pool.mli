(** Deterministic domain-pool parallelism (stdlib-only: [Domain] + [Mutex] +
    [Condition]).

    A fixed-size, reusable pool of worker domains behind three data-parallel
    combinators. The design goal is {e determinism first}: for any job
    count, every combinator produces byte-identical results (and raises the
    same exception) as the sequential run, so [--jobs] can never change a
    solver's output — only its wall-clock time. Concretely:

    - {b Static chunking.} An [n]-element range is split into contiguous
      chunks ([chunk c] covers [c*n/k .. (c+1)*n/k - 1]). There is no work
      stealing and no dynamic splitting: which indices land in which chunk
      is a pure function of [(n, k)], never of timing.
    - {b Chunk-ordered merging.} {!parallel_map_chunked} returns chunk
      results in chunk-index order; {!parallel_reduce} combines partial
      accumulators left-to-right in chunk-index order over a chunking that
      depends only on [n] (not on the job count), so even non-associative
      floating-point reductions are byte-identical for every [jobs] value.
    - {b Deterministic exceptions.} Every chunk runs to completion (or to
      its own exception); the exception of the {e lowest-indexed} failing
      chunk is re-raised with its original backtrace, regardless of which
      domain ran it or which failed first in real time.
    - {b jobs = 1 is exactly sequential.} No domain is ever spawned, no
      mutex is taken; the combinators degenerate to plain loops.

    {2 Job-count resolution}

    Every combinator takes [?jobs]. When omitted, the count comes from
    {!default_jobs}: a process-wide override ({!set_default_jobs},
    {!with_jobs}) if installed, else the [GEACC_JOBS] environment variable,
    else 1. Malformed or non-positive [GEACC_JOBS] reads as 1; values are
    clamped to {!max_jobs}.

    {2 Nesting}

    Parallel regions do not nest: worker domains are a single flat pool.
    A combinator called {e from inside} a running chunk body behaves as
    follows:
    - with [?jobs] omitted (ambient parallelism), it degrades to the
      sequential path — outer-level parallelism composes with inner-level
      parallelism by turning the inner level off, deterministically;
    - with an explicit [~jobs] greater than 1, it raises [Invalid_argument]
      ("nested parallel region") — an explicit demand for parallelism that
      cannot be granted is a programming error, not a silent degradation.

    {2 Lifecycle}

    The pool is created lazily on the first region with an effective job
    count above 1, grows to the largest requested size, and is reused by
    every later region (domains block on a condition variable between
    regions). An [at_exit] hook shuts the workers down so the process never
    exits with domains parked on the queue.

    {2 Chunk-body contract (statically enforced)}

    The determinism guarantee holds only if chunk bodies write nothing but
    state owned by their own index/chunk and observe no ambient
    nondeterminism (global [Random] state, domain identity, clocks,
    std-channel output, hashtable iteration order, physical equality on
    boxed values). [geacc_analyze] ([dune build @analyze]) checks both
    obligations interprocedurally at every call site of the three
    combinators — rules [par-shared-write] and [par-nondet]; see
    DESIGN.md §12. *)

val max_jobs : int
(** Upper clamp on every job count (64). *)

val default_jobs : unit -> int
(** The ambient job count: the {!set_default_jobs} override if installed,
    else [GEACC_JOBS], else 1. Always in [1 .. max_jobs]. *)

val set_default_jobs : int -> unit
(** Installs a process-wide override of the ambient job count (clamped to
    [max_jobs]). @raise Invalid_argument when the argument is < 1. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs j f] runs [f] with the ambient job count overridden to [j],
    restoring the previous override afterwards (exception-safe). *)

val resolve_jobs : ?jobs:int -> unit -> int
(** The effective job count a combinator would use: [jobs] if given (see
    {e Nesting} above for calls inside a running region), else
    {!default_jobs} — or 1 when called inside a running region.
    @raise Invalid_argument on explicit [jobs < 1], or explicit [jobs > 1]
    inside a running region. *)

val parallel_for : ?jobs:int -> n:int -> (int -> unit) -> unit
(** [parallel_for ~n f] runs [f i] for every [i] in [0 .. n-1], split into
    [min jobs n] static chunks; within a chunk, indices run in ascending
    order. The body must only write state owned by its own index (or
    chunk); completion of the region establishes a happens-before edge, so
    the caller reads all writes made by every chunk. [n = 0] is a no-op. *)

val parallel_map_chunked :
  ?jobs:int -> n:int -> (lo:int -> hi:int -> 'a) -> 'a array
(** [parallel_map_chunked ~n f] computes [f ~lo ~hi] once per static chunk
    ([lo] inclusive, [hi] exclusive) and returns the results in chunk-index
    order. Chunks are contiguous, disjoint, ascending and cover exactly
    [0 .. n-1], so a concatenation-style merge of the results is
    byte-identical for every job count. Returns [[||]] when [n = 0]. *)

val parallel_reduce :
  ?jobs:int ->
  ?chunk:int ->
  n:int ->
  init:'a ->
  fold:('a -> int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  unit ->
  'a
(** [parallel_reduce ~n ~init ~fold ~combine ()] folds every chunk from
    [init] over its indices in ascending order, then combines the chunk
    accumulators left-to-right (in chunk-index order) starting from [init].
    The chunking is [ceil (n / chunk)] fixed-size chunks ([chunk] defaults
    to 1024) — a function of [n] only, {e not} of the job count — so the
    result is byte-identical for every [jobs] value even when [combine] is
    not associative (floating-point sums). [init] must be a neutral element
    of [combine]. Returns [init] when [n = 0]. *)

val in_region : unit -> bool
(** [true] while the calling domain is executing a chunk body of a running
    parallel region (workers and the caller's own chunk alike). *)

val shutdown : unit -> unit
(** Joins and discards all pooled worker domains. The pool respawns lazily
    on the next parallel region, so this is safe to call between regions —
    it exists for the [at_exit] hook and for tests. *)
