(* The relaxation kernel indexes the raw CSR slices and the node-indexed
   scratch arrays through [Geacc_unsafe] under stage-4 licences: positions
   come from [res_begin u <= live_end u <= arc_count <= |slice|] and from
   [forward_cursor u] and resume positions at or past it, and node ids
   from [csr_dst] contents, which lie in [0, node_count) — invariants the
   @bounds analyzer seeds from [finalize_csr] and Audit.Flow.check_csr
   verifies at runtime. A popped node id is not known to the analyzer, so
   the per-node reads it drives stay checked. `--profile safe` compiles
   the same sites back to checked accesses. See DESIGN.md §13 and §15.4. *)
module A = Geacc_unsafe
module Q = Geacc_pqueue.Int_bucket_queue

type scratch = {
  dist : int array;
  parent_arc : int array;
  resume : int array;     (* node -> next position of its deferred walk *)
  touched : int array;    (* the nodes the pass gave a finite distance *)
  mutable n_touched : int;
  queue : Q.t;
}

let scratch ~nodes =
  {
    dist = Array.make nodes max_int;
    parent_arc = Array.make nodes (-1);
    resume = Array.make nodes 0;
    touched = Array.make nodes 0;
    n_touched = 0;
    queue = Q.create ();
  }

let dist s = s.dist
let parent_arc s = s.parent_arc

(* The one kernel. [pi_max] is at least every potential; [stop] is the
   stop node, or -1. On entry [dist] / [parent_arc] are [max_int] / -1
   except at the [touched] nodes, which the kernel resets first. *)
let run g s ~source ~pi ~pi_max ~stop =
  Graph.finalize_csr g;
  let n = Graph.node_count g in
  let dist = s.dist and parent_arc = s.parent_arc and resume = s.resume in
  let touched = s.touched and queue = s.queue in
  assert (Array.length pi = n);
  assert (Array.length dist = n);
  assert (Array.length parent_arc = n);
  (* Undo the previous pass on the nodes it reached, and only there. *)
  for i = 0 to s.n_touched - 1 do
    let v = touched.(i) in
    dist.(v) <- max_int;
    parent_arc.(v) <- -1
  done;
  s.n_touched <- 0;
  Q.clear queue;
  (* bounds: proved — slice fetched under csr_valid (finalize_csr above) *)
  let csr_dst = Graph.unsafe_csr_dst g in
  (* bounds: proved — slice fetched under csr_valid (finalize_csr above) *)
  let csr_icost = Graph.unsafe_csr_icost g in
  (* bounds: proved — slice fetched under csr_valid (finalize_csr above) *)
  let csr_cap = Graph.unsafe_csr_cap g in
  (* bounds: proved — slice fetched under csr_valid (finalize_csr above) *)
  let csr_arc = Graph.unsafe_csr_arc g in
  (* bounds: proved — slice fetched under csr_valid (finalize_csr above) *)
  let res = Graph.unsafe_csr_res g in
  (* bounds: proved — slice fetched under csr_valid (finalize_csr above) *)
  let live = Graph.unsafe_csr_live g in
  (* bounds: proved — slice fetched under csr_valid (finalize_csr above) *)
  let cursor = Graph.unsafe_csr_cursor g in
  dist.(source) <- 0;
  touched.(0) <- source;
  s.n_touched <- 1;
  Q.push queue 0 source;
  (* Tentative distance of the stop node, hoisted for the goal bound: a
     relaxation to [nd > stop_dist] can neither end up on a shortest
     [stop] path nor be expanded before [stop] settles, and since the SSP
     potential update caps every contribution at the stop node's final
     distance, dropping it leaves the potentials — and hence every later
     pass — exactly as an unpruned search computes them. Ties
     ([nd = stop_dist]) are kept: zero-reduced-cost suffixes put them on
     shortest stop paths. Without a stop node the bound stays [max_int]
     and nothing is pruned. *)
  let stop_dist = ref max_int in
  (* Queue payloads below [n] are nodes; a payload [n + u] is node [u]'s
     deferred walk, standing for the forward arcs of its run from
     [resume.(u)] on. A node has at most one deferred walk queued: it
     pushes one only while settling or while its previous one runs. No
     [settled] array: keys are monotone and strict improvements are the
     only node pushes, so per node all queued keys are distinct and
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
      let x = Q.pop_min queue in
      let d = Q.floor queue in
      walk_p := 0;
      walk_end := 0;
      if x >= n then begin
        (* A deferred walk: every arc it stands for has a lower bound of
           at least [d], so none could have settled a node earlier. *)
        let u = x - n in
        let p = resume.(u) in
        (* It resumes inside the node's forward run, at or past its
           cursor (capacities do not change during a pass). *)
        assert (cursor.(u) <= p);
        walk_u := u;
        walk_p := p;
        walk_end := res.(u)
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
          for p = res.(u) to live.(u) - 1 do
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
            let old = A.unsafe_get dist v in
            if nd < old && nd <= !stop_dist then begin
              if old = max_int then begin
                touched.(s.n_touched) <- v;
                s.n_touched <- s.n_touched + 1
              end;
              (* bounds: proved — v < node_count = |dist| *)
              A.unsafe_set dist v nd;
              (* bounds: proved — v < node_count = |parent_arc|; p < arc_count <= |csr_arc| *)
              A.unsafe_set parent_arc v (A.unsafe_get csr_arc p);
              if v = stop then stop_dist := nd;
              Q.push queue nd v
            end
          done;
          (* The forward walk starts past the saturated head of the run:
             the positions before the cursor all have zero capacity. *)
          walk_u := u;
          walk_p := cursor.(u);
          walk_end := res.(u)
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
              if lb <= !stop_dist then begin
                resume.(u) <- p;
                Q.push queue lb (n + u)
              end;
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
              let old = A.unsafe_get dist v in
              if nd < old && nd <= !stop_dist then begin
                if old = max_int then begin
                  touched.(s.n_touched) <- v;
                  s.n_touched <- s.n_touched + 1
                end;
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

let dijkstra_int g ~source ~pi ~dist ~parent_arc ~queue ?stop_at () =
  let n = Graph.node_count g in
  assert (Array.length pi = n);
  assert (Array.length dist = n);
  assert (Array.length parent_arc = n);
  Array.fill dist 0 n max_int;
  Array.fill parent_arc 0 n (-1);
  let s =
    {
      dist;
      parent_arc;
      resume = Array.make n 0;
      touched = Array.make n 0;
      n_touched = 0;
      queue;
    }
  in
  (* The largest potential: [pi_max >= pi v] for every head [v] turns a
     forward arc's cost into a lower bound on the key it would produce. *)
  let pi_max = ref pi.(source) in
  for v = 0 to n - 1 do
    (* bounds: proved — v < n = |pi| (asserted above) *)
    let p = A.unsafe_get pi v in
    if p > !pi_max then pi_max := p
  done;
  let stop = match stop_at with Some t -> t | None -> -1 in
  run g s ~source ~pi ~pi_max:!pi_max ~stop

(* The SSP's potentials keep the sink's the largest (DESIGN.md §15.4), so
   the pass reads [pi_max] off the sink instead of scanning. *)
let[@inline] ssp_pass g s ~source ~sink ~pi =
  run g s ~source ~pi ~pi_max:pi.(sink) ~stop:sink
