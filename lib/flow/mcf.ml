module Budget = Geacc_robust.Budget

(* The potential-update loop and the augmentation walks index their arrays
   through [Geacc_unsafe] under stage-4 licences; the asserts below are the
   facts those proofs rest on. See DESIGN.md §13. *)
module A = Geacc_unsafe

type int_outcome = {
  iflow : int;
  icost : int;
  iaugmentations : int;
  itimed_out : bool;
}

let overflow_limit = 1 lsl 61

(* The overflow precondition of DESIGN.md §15.2, from one pass over the
   forward arcs that can carry flow: every cost lies in [0, c_max] and
   [n * c_max <= 2^61] (bounding every key, potential and path cost), and
   the source's out-capacity times the largest acceptable path cost stays
   within 2^61 (bounding the accumulated total cost). *)
let in_domain g ~source ~stop_below =
  let n = Graph.node_count g in
  let negative = ref false and c_max = ref 0 and out_cap = ref 0 in
  Graph.fold_forward_arcs g ~init:() ~f:(fun () a ->
      let r = Graph.residual_capacity g a in
      if r > 0 then begin
        let c = Graph.icost g a in
        if c < 0 then negative := true;
        if c > !c_max then c_max := c;
        if Graph.src g a = source then
          out_cap :=
            if r >= overflow_limit - !out_cap then overflow_limit
            else !out_cap + r
      end);
  if !negative || !c_max > overflow_limit / n then false
  else
    let path_max =
      match stop_below with
      | Some ceiling -> Int.max 0 (Int.min (ceiling - 1) ((n - 1) * !c_max))
      | None -> (n - 1) * !c_max
    in
    path_max = 0 || !out_cap <= overflow_limit / path_max

let solve_int g ~source ~sink ?(deadline = Budget.unlimited) ?stop_below
    ?(audit_after_dijkstra = fun ~potential:_ -> ())
    ?(audit_after_augment = fun () -> ()) () =
  assert (source <> sink);
  let n = Graph.node_count g in
  assert (0 <= source && source < n && 0 <= sink && sink < n);
  (* No Bellman–Ford seeding: the initial all-zero potential must already
     reduce non-negatively, i.e. no capacitated forward arc with negative
     cost — the assignment networks satisfy this by construction (costs
     1 - sim >= 0). *)
  if not (in_domain g ~source ~stop_below) then None
  else begin
    let pi = Array.make n 0 in
    (* Scratch for every Dijkstra pass, allocated once per solve — the
       passes themselves allocate nothing. *)
    let sp = Shortest_path.scratch ~nodes:n in
    let dist = Shortest_path.dist sp in
    let parent_arc = Shortest_path.parent_arc sp in
    let total_flow = ref 0 in
    let total_cost = ref 0 in
    let augmentations = ref 0 in
    let continue = ref true in
    let timed_out = ref false in
    let bottleneck = ref max_int in
    let v = ref sink in
    while !continue do
      (* Deadline poll between augmentations: each iteration runs a full
         Dijkstra, so read the clock every time rather than batching. *)
      if Budget.check_now deadline then begin
        timed_out := true;
        continue := false
      end
      else begin
        Shortest_path.ssp_pass g sp ~source ~sink ~pi;
        if dist.(sink) = max_int then continue := false
        else begin
          (* True source->sink path cost, before the potential update —
             exact integer arithmetic, the potentials telescope. *)
          let path_cost = dist.(sink) + pi.(sink) - pi.(source) in
          let stop_here =
            match stop_below with
            | None -> false
            | Some ceiling -> path_cost >= ceiling
          in
          if stop_here then continue := false
          else begin
            (* Keep reduced costs non-negative for the next round: cap
               distance contributions at the sink's distance. Every node
               gains at most [cap] and the sink exactly [cap], so the
               sink's potential stays the largest, which is what
               [ssp_pass] reads as its bound. *)
            let cap = dist.(sink) in
            assert (Array.length dist = Array.length pi);
            for u = 0 to Array.length dist - 1 do
              (* bounds: proved — u < |dist| = |pi| (asserted above) *)
              let d = A.unsafe_get dist u in
              (* bounds: proved — u < |pi| = |dist| (asserted above) *)
              A.unsafe_set pi u (A.unsafe_get pi u + (if d < cap then d else cap))
            done;
            audit_after_dijkstra ~potential:pi;
            bottleneck := max_int;
            v := sink;
            assert (Array.length parent_arc = n);
            while !v <> source do
              (* bounds: proved — v stays in [0, n) = [0, |parent_arc|): sink is asserted, Graph.src returns node ids *)
              let a = A.unsafe_get parent_arc !v in
              assert (a >= 0);
              let r = Graph.residual_capacity g a in
              if r < !bottleneck then bottleneck := r;
              v := Graph.src g a
            done;
            let units = !bottleneck in
            assert (units > 0);
            v := sink;
            while !v <> source do
              (* bounds: proved — v stays in [0, n) = [0, |parent_arc|): sink is asserted, Graph.src returns node ids *)
              let a = A.unsafe_get parent_arc !v in
              Graph.push g a units;
              v := Graph.src g a
            done;
            total_flow := !total_flow + units;
            total_cost := !total_cost + (units * path_cost);
            incr augmentations;
            audit_after_augment ()
          end
        end
      end
    done;
    Some
      {
        iflow = !total_flow;
        icost = !total_cost;
        iaugmentations = !augmentations;
        itimed_out = !timed_out;
      }
  end
