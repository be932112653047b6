(** Timestamped workload traces for [geacc serve].

    Builds a {!Geacc_serve.Trace.t} shaped like a live Meetup deployment of
    one of the paper's TABLE II cities: roughly half the events open up
    front and the rest within the first third of the stream (events are
    published early; arrivals dominate the steady state), users arrive in
    bursts (batches sharing a timestamp contend for admission together),
    and churn trickles in — departures, event closures, capacity changes
    and periodic [stats] probes. The instance's conflict pairs surface as
    soon as both endpoints are open, clustering into the event-opening
    phase. Batch tiers are mixed roughly 20% [Must] / 50% [Should] / 30%
    [Optional].

    Everything is driven by [seed]: equal seeds and parameters produce
    byte-equal traces, so tests and benchmarks can pin digests. Generated
    traces always parse back ({!Geacc_serve.Trace.parse}) and apply cleanly
    — ids are emitted in arrival order, tombstoned ids are never reused. *)

val generate :
  seed:int ->
  ?city:Meetup.city ->
  ?conflict_ratio:float ->
  ?arrivals_per_batch:int ->
  ?churn:float ->
  unit ->
  Geacc_serve.Trace.t
(** Defaults: [city = Meetup.auckland], [conflict_ratio = 0.25] (of the
    city's event pairs), [arrivals_per_batch = 8] (the mean burst size),
    [churn = 0.1] (the probability of a departure in each batch). The
    underlying entities come from {!Meetup.generate} with the same seed, so
    a trace replayed to the end covers exactly that city's population.
    @raise Invalid_argument when [arrivals_per_batch < 1] or [churn] is
    outside [\[0, 1\]] (NaN included). *)
