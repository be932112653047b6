module Graph = Geacc_flow.Graph
module Mcf = Geacc_flow.Mcf
module Audit = Geacc_check.Audit
module Fault = Geacc_robust.Fault
module Pool = Geacc_par.Pool

(* Quantisation grid: costs 1 - sim ∈ [0, 1] round to [0, 2^30]. Rounding
   moves each cost by at most 2^-31 ≈ 5e-10 — the same lossless-in-practice
   band as the τ = 0 similarity gate — and the grid point q/2^30 is exactly
   representable as a double, so extraction recovers it bit for bit. *)
let cost_scale = 1 lsl 30
let cost_scale_f = float_of_int cost_scale

let quantise c =
  let q = int_of_float (Float.round (c *. cost_scale_f)) in
  assert (0 <= q && q <= cost_scale);
  q

let dequantise q = float_of_int q /. cost_scale_f

(* Process-wide similarity gate, settable by front ends (mirrors
   [Pool.set_default_jobs]): an explicit [?min_sim] always wins. *)
let min_sim_default = ref 0.
let default_min_sim () = !min_sim_default

let set_default_min_sim s =
  if not (s >= 0. && s <= 1.) then
    invalid_arg "Mincostflow.set_default_min_sim: threshold outside [0, 1]";
  min_sim_default := s

type net = {
  graph : Graph.t;
  source : int;
  sink : int;
  pair_arcs : int;
  dense_pairs : int;
}

type stats = {
  flow_value : int;
  flow_cost : float;
  augmentations : int;
  dropped_pairs : int;
  pair_arcs : int;
  dense_pairs : int;
  timed_out : bool;
  int_fallback : bool;
}

(* Node layout: 0 = source; 1..|V| = events; |V|+1..|V|+|U| = users; last =
   sink. *)

(* Sparse-build audit: every (v,u) pair the candidate queries pruned must be
   provably below the similarity gate — an index bug that silently drops a
   matchable pair would otherwise only show up as a worse MaxSum. *)
let audit_pruned_pairs ~site instance g ~min_sim ~n_v ~n_u =
  let emitted = Array.make (Stdlib.max (n_v * n_u) 1) false in
  Graph.fold_forward_arcs g ~init:() ~f:(fun () a ->
      let s = Graph.src g a and d = Graph.dst g a in
      if s >= 1 && s <= n_v && d > n_v && d <= n_v + n_u then
        emitted.(((s - 1) * n_u) + (d - 1 - n_v)) <- true);
  for v = 0 to n_v - 1 do
    for u = 0 to n_u - 1 do
      if not emitted.((v * n_u) + u) then begin
        let s = Instance.sim instance ~v ~u in
        if s > 0. && s >= min_sim then
          Audit.failf ~site
            "pruned pair (%d,%d) has similarity %.17g above the gate \
             (min_sim %.17g)"
            v u s min_sim
      end
    done
  done

let build_network ?jobs ?min_sim instance =
  (* [mcf.alloc] simulates the network arena failing to materialise (the
     arc array is this solver's dominant allocation); the fallback harness
     treats the injected exception as a transient fault. *)
  Fault.inject "mcf.alloc";
  let min_sim =
    match min_sim with Some s -> s | None -> !min_sim_default
  in
  if not (min_sim >= 0. && min_sim <= 1.) then
    invalid_arg "Mincostflow.build_network: min_sim outside [0, 1]";
  (* An active fault plan forces a sequential build, so fault points hit
     inside the candidate queries fire in plan order. *)
  let jobs = if Fault.active () then Some 1 else jobs in
  let n_v = Instance.n_events instance and n_u = Instance.n_users instance in
  let source = 0 in
  let event_node v = 1 + v in
  let user_node u = 1 + n_v + u in
  let sink = 1 + n_v + n_u in
  let g = Graph.create ~num_nodes:(sink + 1) in
  (* Similarity-pruned construction: the SSP loop stops before any unit
     whose path cost reaches 1, and a zero-similarity arc costs exactly 1,
     so per event the candidate query returns just the users above the
     gate and the event layer emits [Σ_v |cand v|] arcs instead of
     |V|·|U|. The per-event candidate sets are computed in parallel per
     event-chunk (each cell a function of its event id alone, so
     byte-identical for every job count); degree counting then pre-sizes
     the arc store exactly, and the sequential v-major emission in
     candidate order fixes arc ids. On indexed instances that order is
     descending similarity, so each event's arcs arrive cost-ascending
     and [Graph.finalize_csr] only checks their order. *)
  Instance.prepare_event_queries instance;
  let candidates =
    (* Chunks tile [0, n_v) contiguously in order, so after concatenation
       the index is the event id. *)
    Array.concat
      (Array.to_list
         (Pool.parallel_map_chunked ?jobs ~n:n_v (fun ~lo ~hi ->
              Array.init (hi - lo) (fun i ->
                  (* race: ok — candidate_users opens a fresh stream over the shared read-only index; the only mutable reach is Fault.fire's counters, armed solely by single-domain robustness tests *)
                  Instance.candidate_users instance ~v:(lo + i) ~min_sim))))
  in
  let pair_arcs =
    Array.fold_left (fun acc c -> acc + Array.length c) 0 candidates
  in
  Graph.reserve g ~arcs:(n_v + pair_arcs + n_u);
  for v = 0 to n_v - 1 do
    ignore
      (Graph.add_arc g ~src:source ~dst:(event_node v)
         ~capacity:(Instance.event_capacity instance v) ~cost:0)
  done;
  Array.iteri
    (fun v ->
      Array.iter (fun (u, s) ->
          (* Candidates already pass [s > 0]; a similarity above 1 (or
             NaN, e.g. from a [Similarity.custom] breaking its [0, 1]
             contract) would make a negative-cost arc, outside the SSP
             kernel's domain. *)
          if not (s <= 1.) then
            invalid_arg
              (Printf.sprintf
                 "Mincostflow.build_network: similarity of (v=%d, u=%d) is \
                  %.17g, outside [0, 1]"
                 v u s);
          ignore
            (Graph.add_arc g ~src:(event_node v) ~dst:(user_node u)
               ~capacity:1 ~cost:(quantise (1. -. s)))))
    candidates;
  if Audit.enabled () then
    audit_pruned_pairs ~site:"Mincostflow.build_network" instance g ~min_sim
      ~n_v ~n_u;
  for u = 0 to n_u - 1 do
    ignore
      (Graph.add_arc g ~src:(user_node u) ~dst:sink
         ~capacity:(Instance.user_capacity instance u) ~cost:0)
  done;
  { graph = g; source; sink; pair_arcs; dense_pairs = n_v * n_u }

let solve_with_stats ?deadline ?jobs ?min_sim instance =
  let n_v = Instance.n_events instance in
  let n_u = Instance.n_users instance in
  let net = build_network ?jobs ?min_sim instance in
  let g = net.graph and source = net.source and sink = net.sink in
  (* A unit of flow adds 1 - path_cost to MaxSum; path costs only grow, so
     stopping before the first non-improving unit lands on the Δ with the
     largest MaxSum (the paper's argmax over Δ_min..Δ_max). *)
  (* Audit hooks fire inside the SSP loop, so a broken invariant names the
     augmentation that introduced it rather than surfacing after the run. *)
  if Audit.enabled () then begin
    Graph.finalize_csr g;
    Audit.Flow.check_csr ~site:"Mincostflow.solve/finalize" g
  end;
  let audit_after_dijkstra ~potential =
    if Audit.enabled () then
      Audit.Flow.check_reduced_costs_int ~site:"Mincostflow.solve/dijkstra"
        g ~potential
  in
  let audit_after_augment () =
    if Audit.enabled () then begin
      let site = "Mincostflow.solve/augment" in
      Audit.Flow.check_capacity ~site g;
      Audit.Flow.check_conservation ~site g ~source ~sink;
      (* Pushes must have kept the positional residual capacities current. *)
      Audit.Flow.check_csr ~site g
    end
  in
  let outcome =
    match
      Mcf.solve_int g ~source ~sink ?deadline ~stop_below:cost_scale
        ~audit_after_dijkstra ~audit_after_augment ()
    with
    | Some o -> o
    | None ->
        (* Arc costs lie in [0, 2^30], so only a network of more than
           2^31 nodes, or with more than 2^31 units of event capacity,
           leaves the kernel's overflow domain (DESIGN.md §15.2). *)
        invalid_arg "Mincostflow.solve: instance too large for 63-bit costs"
  in
  (* M_∅: pairs carrying flow with positive similarity. The similarity is
     recovered from the stored arc cost (s = 1 - cost) instead of being
     recomputed; [s > 0] iff [cost < 1], exactly the build-time gate. *)
  let assigned = Array.make n_u [] in
  Graph.fold_forward_arcs g ~init:() ~f:(fun () a ->
      let sv = Graph.src g a in
      if sv >= 1 && sv <= n_v then begin
        let d = Graph.dst g a in
        if d > n_v && d < sink && Graph.flow g a = 1 then begin
          let s = 1. -. dequantise (Graph.icost g a) in
          if s > 0. then begin
            let u = d - 1 - n_v in
            assigned.(u) <- (sv - 1, s) :: assigned.(u)
          end
        end
      end);
  (* Conflict resolution (Algorithm 1, lines 8-14): per user, keep events in
     descending similarity, skipping any that conflict with one already
     kept — a greedy max-weight independent set. *)
  let matching = Matching.create instance in
  let dropped = ref 0 in
  let cf = Instance.conflicts instance in
  (* Kept-set as a bitset, reused across users: the conflict probe per
     candidate is one word-AND scan of the event's conflict row. *)
  let kept = Bitset.create ~bits:n_v in
  Array.iteri
    (fun u events ->
      let sorted =
        List.sort
          (fun (v1, s1) (v2, s2) ->
            let c = Float.compare s2 s1 in
            if c <> 0 then c else Int.compare v1 v2)
          events
      in
      Bitset.clear kept;
      List.iter
        (fun (v, _) ->
          if Bitset.intersects (Conflict.row cf v) kept then incr dropped
          else begin
            Bitset.set kept v;
            let (_ : float) = Matching.add_exn matching ~v ~u in
            ()
          end)
        sorted)
    assigned;
  if outcome.Mcf.itimed_out then
    Validate.audit_matching ~site:"Mincostflow.solve/degraded" matching;
  ( matching,
    {
      flow_value = outcome.Mcf.iflow;
      flow_cost = dequantise outcome.Mcf.icost;
      augmentations = outcome.Mcf.iaugmentations;
      dropped_pairs = !dropped;
      pair_arcs = net.pair_arcs;
      dense_pairs = net.dense_pairs;
      timed_out = outcome.Mcf.itimed_out;
      int_fallback = false;
    } )

let solve ?deadline ?jobs ?min_sim instance =
  fst (solve_with_stats ?deadline ?jobs ?min_sim instance)
