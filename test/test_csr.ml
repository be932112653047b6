(* CSR finalization invariants on the flow graph:

   - offsets are monotone, contiguous, and cover every arc exactly once;
   - positions and arc ids are mutually inverse permutations, and every
     node's slice is laid out as [forward arcs, cost-ascending | live
     residual arcs | dead residual arcs], with the cursor on the first
     forward position with capacity, through pushes, raw capacity writes
     and [reset_flow];
   - the positional capacity mirror tracks [push] / residual-capacity
     writes and [reset_flow];
   - adding an arc invalidates the CSR and re-finalizing repairs it;
   - the Dijkstra and SSP kernels run on the CSR form and keep it
     current. *)

module Graph = Geacc_flow.Graph
module Shortest_path = Geacc_flow.Shortest_path
module Mcf = Geacc_flow.Mcf
module Int_bucket_queue = Geacc_pqueue.Int_bucket_queue
module Rng = Geacc_util.Rng

(* A random multigraph with parallel arcs and isolated nodes — the shapes
   that stress offset bookkeeping. *)
let random_graph ~seed ~nodes ~arcs =
  let rng = Rng.create ~seed in
  let g = Graph.create ~num_nodes:nodes in
  Graph.reserve g ~arcs;
  for _ = 1 to arcs do
    let s = Rng.int rng nodes and d = Rng.int rng nodes in
    let (_ : Graph.arc) =
      Graph.add_arc g ~src:s ~dst:d
        ~capacity:(1 + Rng.int rng 4)
        ~cost:(Rng.int rng 1000)
    in
    ()
  done;
  g

let check_csr_structure ~label g =
  let n = Graph.node_count g and m = Graph.arc_count g in
  Alcotest.(check bool) (label ^ ": csr_valid") true (Graph.csr_valid g);
  Alcotest.(check int) (label ^ ": offsets start at 0") 0
    (if n = 0 then 0 else Graph.out_begin g 0);
  for v = 0 to n - 1 do
    if Graph.out_end g v < Graph.out_begin g v then
      Alcotest.failf "%s: node %d range reversed" label v;
    if v + 1 < n && Graph.out_end g v <> Graph.out_begin g (v + 1) then
      Alcotest.failf "%s: gap between node %d and %d" label v (v + 1)
  done;
  if n > 0 then
    Alcotest.(check int) (label ^ ": offsets cover all arcs") m
      (Graph.out_end g (n - 1));
  (* Positions <-> arc ids are inverse permutations, and every positional
     accessor agrees with its arc-indexed counterpart. *)
  let seen = Array.make m false in
  for v = 0 to n - 1 do
    for p = Graph.out_begin g v to Graph.out_end g v - 1 do
      let a = Graph.pos_arc g p in
      if a < 0 || a >= m then Alcotest.failf "%s: arc id out of range" label;
      if seen.(a) then Alcotest.failf "%s: arc %d appears twice" label a;
      seen.(a) <- true;
      Alcotest.(check int)
        (Printf.sprintf "%s: arc_position inverse of pos_arc (p=%d)" label p)
        p (Graph.arc_position g a);
      Alcotest.(check int)
        (Printf.sprintf "%s: pos %d src" label p)
        v (Graph.src g a);
      Alcotest.(check int)
        (Printf.sprintf "%s: pos %d dst" label p)
        (Graph.dst g a) (Graph.pos_dst g p);
      Alcotest.(check int)
        (Printf.sprintf "%s: pos %d cost" label p)
        (Graph.icost g a) (Graph.pos_icost g p);
      Alcotest.(check int)
        (Printf.sprintf "%s: pos %d residual cap" label p)
        (Graph.residual_capacity g a)
        (Graph.pos_residual_capacity g p)
    done
  done;
  Array.iteri
    (fun a covered ->
      if not covered then Alcotest.failf "%s: arc %d missing from CSR" label a)
    seen

let test_structure () =
  List.iter
    (fun (seed, nodes, arcs) ->
      let g = random_graph ~seed ~nodes ~arcs in
      Graph.finalize_csr g;
      check_csr_structure
        ~label:(Printf.sprintf "seed=%d n=%d m=%d" seed nodes arcs)
        g)
    [ (1, 1, 0); (2, 5, 1); (3, 9, 40); (4, 30, 200); (5, 12, 12) ]

(* The slice layout: forward (even) arcs by (cost, arc id), then the
   residual (odd) arcs, the live run [res_begin, live_end) holding exactly
   the ones with capacity > 0; the cursor on the first forward position
   with capacity > 0, or at res_begin. *)
let check_layout ~label g =
  for v = 0 to Graph.node_count g - 1 do
    let fb = Graph.out_begin g v and rb = Graph.res_begin g v in
    let le = Graph.live_end g v and oe = Graph.out_end g v in
    if not (fb <= rb && rb <= le && le <= oe) then
      Alcotest.failf "%s: node %d boundaries %d <= %d <= %d <= %d broken"
        label v fb rb le oe;
    let first_open = ref rb in
    for p = rb - 1 downto fb do
      if Graph.residual_capacity g (Graph.pos_arc g p) > 0 then first_open := p
    done;
    Alcotest.(check int)
      (Printf.sprintf "%s: node %d cursor" label v)
      !first_open
      (Graph.forward_cursor g v);
    for p = fb to rb - 1 do
      let a = Graph.pos_arc g p in
      if a land 1 <> 0 then
        Alcotest.failf "%s: node %d forward run holds residual arc %d" label
          v a;
      if p > fb then begin
        let b = Graph.pos_arc g (p - 1) in
        let cb = Graph.icost g b and ca = Graph.icost g a in
        if cb > ca || (cb = ca && b > a) then
          Alcotest.failf "%s: node %d forward run out of order at %d" label
            v p
      end
    done;
    for p = rb to oe - 1 do
      let a = Graph.pos_arc g p in
      if a land 1 = 0 then
        Alcotest.failf "%s: node %d residual run holds forward arc %d" label
          v a;
      if p < le <> (Graph.residual_capacity g a > 0) then
        Alcotest.failf
          "%s: node %d residual arc %d (capacity %d) on the wrong side of \
           the live run"
          label v a
          (Graph.residual_capacity g a)
    done
  done

let test_layout () =
  List.iter
    (fun (seed, nodes, arcs) ->
      let label what = Printf.sprintf "seed=%d %s" seed what in
      let g = random_graph ~seed ~nodes ~arcs in
      Graph.finalize_csr g;
      check_csr_structure ~label:(label "finalize") g;
      check_layout ~label:(label "finalize") g;
      (* Random pushes along either arc of a pair, so residual arcs enter
         and leave their live runs. *)
      let rng = Rng.create ~seed:(seed + 100) in
      let m = Graph.arc_count g in
      for _ = 1 to 4 * arcs do
        let a = Rng.int rng m in
        let r = Graph.residual_capacity g a in
        if r > 0 then Graph.push g a (1 + Rng.int rng r)
      done;
      check_csr_structure ~label:(label "pushes") g;
      check_layout ~label:(label "pushes") g;
      (* Raw writes, negative ones included, cross the boundary both
         ways. *)
      for _ = 1 to arcs do
        Graph.unsafe_set_residual_capacity g (Rng.int rng m)
          (Rng.int rng 4 - 1)
      done;
      check_csr_structure ~label:(label "raw writes") g;
      check_layout ~label:(label "raw writes") g;
      Graph.reset_flow g;
      check_csr_structure ~label:(label "reset_flow") g;
      check_layout ~label:(label "reset_flow") g;
      (* A graph finalized while it carries flow starts with live runs. *)
      for _ = 1 to arcs do
        let a = 2 * Rng.int rng (m / 2) in
        let r = Graph.residual_capacity g a in
        if r > 0 then Graph.push g a r
      done;
      let (_ : Graph.arc) =
        Graph.add_arc g ~src:0 ~dst:(nodes - 1) ~capacity:1 ~cost:0
      in
      Graph.finalize_csr g;
      check_csr_structure ~label:(label "re-finalize under flow") g;
      check_layout ~label:(label "re-finalize under flow") g)
    [ (1, 1, 0); (2, 5, 1); (3, 9, 40); (4, 30, 200); (5, 12, 12); (6, 15, 80);
      (7, 3, 600) ]

(* One node's forward run, three unit arcs at costs 1, 2, 3: saturating
   them walks the cursor to the residual run, and reverse pushes revive
   arcs before it, which pull it back. *)
let test_cursor_revival () =
  let g = Graph.create ~num_nodes:2 in
  let arc cost = Graph.add_arc g ~src:0 ~dst:1 ~capacity:1 ~cost in
  let a1 = arc 1 in
  let a2 = arc 2 in
  let a3 = arc 3 in
  Graph.finalize_csr g;
  let pos = Graph.arc_position g in
  let expect what p =
    check_layout ~label:what g;
    Alcotest.(check int) what p (Graph.forward_cursor g 0)
  in
  expect "finalize: first arc" (pos a1);
  Graph.push g a1 1;
  expect "a1 saturated" (pos a2);
  Graph.push g a2 1;
  Graph.push g a3 1;
  expect "run saturated: residual run" (Graph.res_begin g 0);
  Graph.push g (a2 lxor 1) 1;
  expect "reverse push revives a2" (pos a2);
  Graph.push g (a1 lxor 1) 1;
  expect "reverse push revives a1" (pos a1);
  Graph.push g a1 1;
  expect "a1 saturated again: a2 still live" (pos a2);
  Graph.unsafe_set_residual_capacity g a3 1;
  expect "raw write behind the cursor leaves it" (pos a2);
  Graph.unsafe_set_residual_capacity g a2 0;
  expect "raw write at the cursor moves it" (pos a3)

(* [reset_flow] puts every cursor back on its first arc of positive
   initial capacity; a zero-capacity head stays skipped. *)
let test_cursor_reset_flow () =
  let g = Graph.create ~num_nodes:3 in
  let (_ : Graph.arc) = Graph.add_arc g ~src:0 ~dst:1 ~capacity:0 ~cost:0 in
  let a = Graph.add_arc g ~src:0 ~dst:1 ~capacity:2 ~cost:5 in
  let b = Graph.add_arc g ~src:1 ~dst:2 ~capacity:1 ~cost:1 in
  Graph.finalize_csr g;
  Alcotest.(check int) "zero-capacity head skipped" (Graph.arc_position g a)
    (Graph.forward_cursor g 0);
  Graph.push g a 2;
  Graph.push g b 1;
  Alcotest.(check int) "node 0 saturated" (Graph.res_begin g 0)
    (Graph.forward_cursor g 0);
  Alcotest.(check int) "node 1 saturated" (Graph.res_begin g 1)
    (Graph.forward_cursor g 1);
  Graph.reset_flow g;
  check_layout ~label:"after reset_flow" g;
  Alcotest.(check int) "node 0 back on a" (Graph.arc_position g a)
    (Graph.forward_cursor g 0);
  Alcotest.(check int) "node 1 back on b" (Graph.arc_position g b)
    (Graph.forward_cursor g 1)

let test_residual_pairing_preserved () =
  let g = random_graph ~seed:7 ~nodes:10 ~arcs:60 in
  Graph.finalize_csr g;
  for a = 0 to Graph.arc_count g - 1 do
    (* Arc ids survive CSR finalization, so the partner is still a lxor 1
       and forward arcs are still the even ids. *)
    let b = a lxor 1 in
    Alcotest.(check int)
      (Printf.sprintf "arc %d partner dst is own src" a)
      (Graph.src g a)
      (Graph.dst g b);
    let pa = Graph.arc_position g a and pb = Graph.arc_position g b in
    if pa = pb then Alcotest.failf "arc %d shares a position with partner" a
  done

let test_push_updates_mirror () =
  let g = Graph.create ~num_nodes:4 in
  let a0 = Graph.add_arc g ~src:0 ~dst:1 ~capacity:3 ~cost:4 in
  let a1 = Graph.add_arc g ~src:1 ~dst:2 ~capacity:2 ~cost:2 in
  let _a2 = Graph.add_arc g ~src:2 ~dst:3 ~capacity:1 ~cost:1 in
  Graph.finalize_csr g;
  Graph.push g a0 2;
  Graph.push g a1 1;
  check_csr_structure ~label:"after push" g;
  Alcotest.(check int) "pushed flow visible positionally" 1
    (Graph.pos_residual_capacity g (Graph.arc_position g a0));
  Alcotest.(check int) "reverse arc gained capacity" 2
    (Graph.pos_residual_capacity g (Graph.arc_position g (a0 lxor 1)));
  (* Cancel one unit over the reverse arc: both mirrors move again. *)
  Graph.push g (a0 lxor 1) 1;
  check_csr_structure ~label:"after reverse push" g;
  Graph.unsafe_set_residual_capacity g a1 2;
  Graph.unsafe_set_residual_capacity g (a1 lxor 1) 0;
  check_csr_structure ~label:"after raw write" g;
  Graph.reset_flow g;
  check_csr_structure ~label:"after reset_flow" g;
  Alcotest.(check int) "reset restores initial capacity" 3
    (Graph.pos_residual_capacity g (Graph.arc_position g a0))

let test_add_arc_invalidates () =
  let g = Graph.create ~num_nodes:3 in
  let (_ : Graph.arc) =
    Graph.add_arc g ~src:0 ~dst:1 ~capacity:1 ~cost:0
  in
  Graph.finalize_csr g;
  Alcotest.(check bool) "valid after finalize" true (Graph.csr_valid g);
  let (_ : Graph.arc) =
    Graph.add_arc g ~src:1 ~dst:2 ~capacity:1 ~cost:0
  in
  Alcotest.(check bool) "stale after add_arc" false (Graph.csr_valid g);
  Graph.finalize_csr g;
  check_csr_structure ~label:"re-finalized" g

let test_flow_round_trip () =
  (* A 2x2 transport instance driven through the CSR-backed kernels: the
     cheapest augmenting path is s->1->3->t (1), then s->2->4->t (2) after
     one unit is pushed along the first. *)
  let g = Graph.create ~num_nodes:6 in
  let s = 0 and t = 5 in
  let (_ : Graph.arc) = Graph.add_arc g ~src:s ~dst:1 ~capacity:2 ~cost:0 in
  let (_ : Graph.arc) = Graph.add_arc g ~src:s ~dst:2 ~capacity:2 ~cost:0 in
  let (_ : Graph.arc) = Graph.add_arc g ~src:1 ~dst:3 ~capacity:1 ~cost:1 in
  let (_ : Graph.arc) = Graph.add_arc g ~src:1 ~dst:4 ~capacity:1 ~cost:4 in
  let (_ : Graph.arc) = Graph.add_arc g ~src:2 ~dst:4 ~capacity:2 ~cost:2 in
  let (_ : Graph.arc) = Graph.add_arc g ~src:3 ~dst:t ~capacity:2 ~cost:0 in
  let (_ : Graph.arc) = Graph.add_arc g ~src:4 ~dst:t ~capacity:2 ~cost:0 in
  let n = Graph.node_count g in
  let dist = Array.make n 0 and parent_arc = Array.make n 0 in
  let queue = Int_bucket_queue.create () in
  (* Johnson potentials, updated as the SSP loop does, keep the residual
     reverse arcs' reduced costs non-negative for the second pass. *)
  let pi = Array.make n 0 in
  let augment_cheapest expected_cost =
    Shortest_path.dijkstra_int g ~source:s ~pi ~dist ~parent_arc ~queue ();
    Alcotest.(check int)
      (Printf.sprintf "path cost %d" expected_cost)
      expected_cost
      (dist.(t) + pi.(t) - pi.(s));
    let cap = dist.(t) in
    Array.iteri (fun v d -> pi.(v) <- pi.(v) + Int.min d cap) dist;
    (* Walk parents back from the sink pushing one unit. *)
    let v = ref t in
    while !v <> s do
      let a = parent_arc.(!v) in
      Graph.push g a 1;
      v := Graph.src g a
    done
  in
  augment_cheapest 1;
  check_csr_structure ~label:"after first augmentation" g;
  augment_cheapest 2;
  check_csr_structure ~label:"after second augmentation" g;
  Graph.reset_flow g;
  check_csr_structure ~label:"after reset" g;
  (match Mcf.solve_int g ~source:s ~sink:t () with
  | None -> Alcotest.fail "non-negative costs are in the domain"
  | Some o ->
      Alcotest.(check int) "max flow" 3 o.Mcf.iflow;
      Alcotest.(check int) "min cost" 5 o.Mcf.icost);
  check_csr_structure ~label:"after solve_int" g

let suite =
  [
    Alcotest.test_case "offsets/permutation structure" `Quick test_structure;
    Alcotest.test_case "CSR slice layout" `Quick test_layout;
    Alcotest.test_case "cursor: reverse pushes revive arcs before it" `Quick
      test_cursor_revival;
    Alcotest.test_case "cursor: reset_flow" `Quick test_cursor_reset_flow;
    Alcotest.test_case "residual pairing preserved" `Quick
      test_residual_pairing_preserved;
    Alcotest.test_case "push keeps positional mirror in sync" `Quick
      test_push_updates_mirror;
    Alcotest.test_case "add_arc invalidates, re-finalize repairs" `Quick
      test_add_arc_invalidates;
    Alcotest.test_case "flow solvers round-trip on CSR" `Quick
      test_flow_round_trip;
  ]
