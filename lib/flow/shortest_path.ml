(* The relaxation kernels index the raw CSR slices and the node-indexed
   scratch arrays through [Geacc_unsafe] under stage-4 licences: positions
   come from [out_begin u <= p < out_end u <= arc_count <= |slice|] and
   node ids from [csr_dst] contents, which lie in [0, node_count) —
   invariants the @bounds analyzer seeds from [finalize_csr] and
   Audit.Flow.check_csr verifies at runtime. `--profile safe` compiles the
   same sites back to checked accesses. See DESIGN.md §13. *)
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
  (* No [settled] array: keys are monotone and strict improvements are the
     only pushes, so per node all queued keys are distinct and exactly one
     equals [dist] — a popped entry is live iff [d = dist.(u)], and a
     settled node can never be re-improved because reduced costs are
     exactly non-negative. *)
  let finished = ref false in
  (* poll: ok — one Dijkstra pass is the SSP unit of work; Mcf.solve_int polls before every pass *)
  while not !finished do
    if Q.is_empty queue then finished := true
    else begin
      let d = Q.min_key queue in
      let u = Q.min_payload queue in
      Q.drop_min queue;
      if d = dist.(u) then begin
        if u = stop then finished := true
        else begin
          (* The potential is read-only for the whole pass, so the settled
             node's entry is hoisted out of its arc scan. *)
          let pi_u = pi.(u) in
          for p = Graph.out_begin g u to Graph.out_end g u - 1 do
            (* bounds: proved — p < out_end <= arc_count <= |csr_cap| *)
            if A.unsafe_get csr_cap p > 0 then begin
              (* bounds: proved — p < out_end <= arc_count <= |csr_dst| *)
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
            end
          done
        end
      end
    end
  done
