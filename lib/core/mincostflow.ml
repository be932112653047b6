module Graph = Geacc_flow.Graph
module Mcf = Geacc_flow.Mcf
module Audit = Geacc_check.Audit
module Fault = Geacc_robust.Fault

(* Quantisation grid: costs 1 - sim ∈ [0, 1] round to [0, 2^30]. Rounding
   moves each cost by at most 2^-31 ≈ 5e-10 — the same lossless-in-practice
   band as the τ = 0 similarity gate — and the grid point q/2^30 is exactly
   representable as a double, so extraction recovers it bit for bit. *)
let cost_scale = 1 lsl 30
let cost_scale_f = float_of_int cost_scale

let[@inline] quantise c =
  let q = int_of_float (Float.round (c *. cost_scale_f)) in
  assert (0 <= q && q <= cost_scale);
  q

let dequantise q = float_of_int q /. cost_scale_f

(* Process-wide similarity gate, settable by front ends: an explicit
   [?min_sim] always wins. *)
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

let build_network ?min_sim instance =
  (* [mcf.alloc] simulates the network arena failing to materialise (the
     arc array is this solver's dominant allocation); a fallback chain
     treats the injected exception as a stage fault and moves on. *)
  Fault.inject "mcf.alloc";
  let min_sim =
    match min_sim with Some s -> s | None -> !min_sim_default
  in
  if not (min_sim >= 0. && min_sim <= 1.) then
    invalid_arg "Mincostflow.build_network: min_sim outside [0, 1]";
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
     |V|·|U|. Degree counting then pre-sizes the arc store exactly, and
     the v-major emission in candidate order fixes arc ids. On indexed
     instances that order is descending similarity, so each event's arcs
     arrive cost-ascending and [Graph.finalize_csr] only checks their
     order. Each event's candidates come as one id array and one unboxed
     similarity array: no pair tuple, no boxed similarity. *)
  let candidates =
    Array.init n_v (fun v -> Instance.event_candidates instance ~v ~min_sim)
  in
  let pair_arcs =
    Array.fold_left (fun acc (ids, _) -> acc + Array.length ids) 0 candidates
  in
  Graph.reserve g ~arcs:(n_v + pair_arcs + n_u);
  for v = 0 to n_v - 1 do
    ignore
      (Graph.add_arc g ~src:source ~dst:(event_node v)
         ~capacity:(Instance.event_capacity instance v) ~cost:0)
  done;
  for v = 0 to n_v - 1 do
    let ids, sims = candidates.(v) in
    for k = 0 to Array.length ids - 1 do
      let u = ids.(k) and s = sims.(k) in
      (* Candidates already pass [s > 0]; a similarity above 1 (or NaN,
         e.g. from a [Similarity.custom] breaking its [0, 1] contract)
         would make a negative-cost arc, outside the SSP kernel's
         domain. *)
      if not (s <= 1.) then
        invalid_arg
          (Printf.sprintf
             "Mincostflow.build_network: similarity of (v=%d, u=%d) is \
              %.17g, outside [0, 1]"
             v u s);
      ignore
        (Graph.add_arc g ~src:(event_node v) ~dst:(user_node u) ~capacity:1
           ~cost:(quantise (1. -. s)))
    done
  done;
  if Audit.enabled () then
    audit_pruned_pairs ~site:"Mincostflow.build_network" instance g ~min_sim
      ~n_v ~n_u;
  for u = 0 to n_u - 1 do
    ignore
      (Graph.add_arc g ~src:(user_node u) ~dst:sink
         ~capacity:(Instance.user_capacity instance u) ~cost:0)
  done;
  { graph = g; source; sink; pair_arcs; dense_pairs = n_v * n_u }

let solve_with_stats ?deadline ?min_sim instance =
  let n_v = Instance.n_events instance in
  let n_u = Instance.n_users instance in
  let net = build_network ?min_sim instance in
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
    if Audit.enabled () then begin
      let site = "Mincostflow.solve/dijkstra" in
      Audit.Flow.check_reduced_costs_int ~site g ~potential;
      Audit.Flow.check_sink_potential_max ~site ~potential ~sink
    end
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
  (* M_∅: pairs carrying flow with positive similarity, read per user off
     its live residual run: the only arcs into a user are its pair arcs,
     so its residual arcs with capacity are exactly the partners of the
     pair arcs carrying a unit. The similarity is recovered from the
     stored arc cost (s = 1 - cost) instead of being recomputed; [s > 0]
     iff [cost < 1], exactly the build-time gate. The CSR form is current
     unless the deadline stopped the solve before its first pass. *)
  let assigned = Array.make n_u [] in
  Graph.finalize_csr g;
  for u = 0 to n_u - 1 do
    let node = 1 + n_v + u in
    for p = Graph.res_begin g node to Graph.live_end g node - 1 do
      let d = Graph.pos_dst g p in
      assert (d >= 1 && d <= n_v);
      let s = 1. -. dequantise (Graph.icost g (Graph.pos_arc g p lxor 1)) in
      if s > 0. then assigned.(u) <- (d - 1, s) :: assigned.(u)
    done
  done;
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

let solve ?deadline ?min_sim instance =
  fst (solve_with_stats ?deadline ?min_sim instance)
