(* The relaxation kernel indexes the raw CSR slices and the node-indexed
   scratch arrays through [Geacc_unsafe] under stage-4 licences: positions
   come from [out_begin u <= res_begin u <= live_end u <= arc_count <=
   |slice|] and node ids from [csr_dst] contents, which lie in
   [0, node_count) — invariants the @bounds analyzer seeds from
   [finalize_csr] and Audit.Flow.check_csr verifies at runtime.
   `--profile safe` compiles the same sites back to checked accesses. See
   DESIGN.md §13 and §15.4. *)
module A = Geacc_unsafe
module Q = Geacc_pqueue.Int_bucket_queue

let dijkstra_int g ~source ~pi ~dist ~parent_arc ~queue ?stop_at () =
  Graph.finalize_csr g;
  let n = Graph.node_count g in
  assert (Array.length pi = n);
  assert (Array.length dist = n);
  assert (Array.length parent_arc = n);
  Array.fill dist 0 n max_int;
  Array.fill parent_arc 0 n (-1);
  Q.clear queue;
  (* bounds: proved — slice fetched under csr_valid (finalize_csr above) *)
  let csr_dst = Graph.unsafe_csr_dst g in
  (* bounds: proved — slice fetched under csr_valid (finalize_csr above) *)
  let csr_icost = Graph.unsafe_csr_icost g in
  (* bounds: proved — slice fetched under csr_valid (finalize_csr above) *)
  let csr_cap = Graph.unsafe_csr_cap g in
  (* bounds: proved — slice fetched under csr_valid (finalize_csr above) *)
  let csr_arc = Graph.unsafe_csr_arc g in
  (* The largest potential: [pi_max >= pi v] for every head [v] turns a
     forward arc's cost into a lower bound on the key it would produce. *)
  let pi_max = ref pi.(source) in
  for v = 0 to n - 1 do
    (* bounds: proved — v < n = |pi| (asserted above) *)
    let p = A.unsafe_get pi v in
    if p > !pi_max then pi_max := p
  done;
  let pi_max = !pi_max in
  let stop = match stop_at with Some s -> s | None -> -1 in
  dist.(source) <- 0;
  Q.push queue 0 source;
  (* Tentative distance of the stop node, hoisted for the goal bound: a
     relaxation to [nd > stop_dist] can neither end up on a shortest
     [stop] path nor be expanded before [stop] settles, and since the SSP
     potential update caps every contribution at the stop node's final
     distance, dropping it leaves the potentials — and hence every later
     pass — exactly as an unpruned search computes them. Ties
     ([nd = stop_dist]) are kept: zero-reduced-cost suffixes put them on
     shortest stop paths. Without [stop_at] the bound stays [max_int] and
     nothing is pruned. *)
  let stop_dist = ref max_int in
  (* Queue payloads below [n] are nodes; a payload [n + p] is a deferred
     walk, standing for the forward arcs of position [p]'s node from [p]
     on. No [settled] array: keys are monotone and strict improvements are
     the only node pushes, so per node all queued keys are distinct and
     exactly one equals [dist] — a popped node entry is live iff
     [d = dist.(u)], and a settled node can never be re-improved because
     reduced costs are exactly non-negative. *)
  let finished = ref false in
  (* The forward walk of the current pop: node, next position, end. *)
  let walk_u = ref 0 and walk_p = ref 0 and walk_end = ref 0 in
  (* poll: ok — one Dijkstra pass is the SSP unit of work; Mcf.solve_int polls before every pass *)
  while not !finished do
    if Q.is_empty queue then finished := true
    else begin
      let d = Q.min_key queue in
      let x = Q.min_payload queue in
      Q.drop_min queue;
      walk_p := 0;
      walk_end := 0;
      if x >= n then begin
        (* A deferred walk: every arc it stands for has a lower bound of
           at least [d], so none could have settled a node earlier. *)
        let p = x - n in
        let u = Graph.src g (Graph.pos_arc g p) in
        walk_u := u;
        walk_p := p;
        walk_end := Graph.res_begin g u
      end
      else if d = dist.(x) then begin
        let u = x in
        if u = stop then finished := true
        else begin
          (* The potential is read-only for the whole pass, so the settled
             node's entry is hoisted out of its arc scans. *)
          let pi_u = pi.(u) in
          (* The live residual run, eagerly: at most the node's flow-
             carrying arcs, and every position in it has capacity. *)
          for p = Graph.res_begin g u to Graph.live_end g u - 1 do
            (* bounds: proved — p < live_end <= arc_count <= |csr_cap| *)
            assert (A.unsafe_get csr_cap p > 0);
            (* bounds: proved — p < live_end <= arc_count <= |csr_dst| *)
            let v = A.unsafe_get csr_dst p in
            let rc =
              (* bounds: proved — p < arc_count <= |csr_icost|; v < node_count = |pi| *)
              A.unsafe_get csr_icost p + pi_u - A.unsafe_get pi v
            in
            (* Integer reduced costs are exactly non-negative: the SSP
               potential update telescopes without roundoff, so there is
               no clamp. *)
            assert (rc >= 0);
            let nd = d + rc in
            (* bounds: proved — v = csr_dst.(p) < node_count = |dist| *)
            if nd < A.unsafe_get dist v && nd <= !stop_dist then begin
              (* bounds: proved — v < node_count = |dist| *)
              A.unsafe_set dist v nd;
              (* bounds: proved — v < node_count = |parent_arc|; p < arc_count <= |csr_arc| *)
              A.unsafe_set parent_arc v (A.unsafe_get csr_arc p);
              if v = stop then stop_dist := nd;
              Q.push queue nd v
            end
          done;
          walk_u := u;
          walk_p := Graph.out_begin g u;
          walk_end := Graph.res_begin g u
        end
      end;
      (* The forward run is cost-ascending, so the lower bound
         [lb = dist u + icost + pi u - pi_max] of its keys never decreases
         along it: relax while [lb <= d], then defer the rest as one entry
         keyed by the first [lb] above [d] — or drop it when that already
         exceeds the stop node's tentative distance. Zero-capacity arcs
         are skipped before their cost is read. *)
      if !walk_p < !walk_end then begin
        let u = !walk_u in
        let du = dist.(u) and pi_u = pi.(u) in
        let base = du + pi_u - pi_max in
        while !walk_p < !walk_end do
          let p = !walk_p in
          walk_p := p + 1;
          (* bounds: proved — p < walk_end = res_begin u <= arc_count <= |csr_cap| *)
          if A.unsafe_get csr_cap p > 0 then begin
            (* bounds: proved — p < res_begin u <= arc_count <= |csr_icost| *)
            let c = A.unsafe_get csr_icost p in
            let lb = base + c in
            if lb > d then begin
              if lb <= !stop_dist then Q.push queue lb (n + p);
              walk_p := !walk_end
            end
            else begin
              (* bounds: proved — p < res_begin u <= arc_count <= |csr_dst| *)
              let v = A.unsafe_get csr_dst p in
              (* bounds: proved — v = csr_dst.(p) < node_count = |pi| *)
              let rc = c + pi_u - A.unsafe_get pi v in
              assert (rc >= 0);
              let nd = du + rc in
              (* bounds: proved — v = csr_dst.(p) < node_count = |dist| *)
              if nd < A.unsafe_get dist v && nd <= !stop_dist then begin
                (* bounds: proved — v < node_count = |dist| *)
                A.unsafe_set dist v nd;
                (* bounds: proved — v < node_count = |parent_arc|; p < arc_count <= |csr_arc| *)
                A.unsafe_set parent_arc v (A.unsafe_get csr_arc p);
                if v = stop then stop_dist := nd;
                Q.push queue nd v
              end
            end
          end
        done
      end
    end
  done
