(* Flow substrate: residual graph mechanics, the integer Dijkstra kernel,
   and the SSP min-cost-flow solver checked against brute-force assignment
   enumeration and the Bellman–Ford reference (Ref_mcf). *)

open Geacc_flow
module Rng = Geacc_util.Rng

let test_graph_basics () =
  let g = Graph.create ~num_nodes:3 in
  let a = Graph.add_arc g ~src:0 ~dst:1 ~capacity:5 ~cost:2 in
  let b = Graph.add_arc g ~src:1 ~dst:2 ~capacity:3 ~cost:(-1) in
  Alcotest.(check int) "node count" 3 (Graph.node_count g);
  Alcotest.(check int) "arcs incl. residuals" 4 (Graph.arc_count g);
  Alcotest.(check int) "src" 0 (Graph.src g a);
  Alcotest.(check int) "dst" 1 (Graph.dst g a);
  Alcotest.(check int) "cost" 2 (Graph.icost g a);
  Alcotest.(check int) "residual cost negated" (-2) (Graph.icost g (a lxor 1));
  Alcotest.(check int) "residual capacity" 5 (Graph.residual_capacity g a);
  Alcotest.(check int) "partner starts empty" 0
    (Graph.residual_capacity g (a lxor 1));
  Graph.push g a 2;
  Alcotest.(check int) "flow" 2 (Graph.flow g a);
  Alcotest.(check int) "capacity decreased" 3 (Graph.residual_capacity g a);
  Alcotest.(check int) "partner grew" 2 (Graph.residual_capacity g (a lxor 1));
  Graph.push g (a lxor 1) 1;
  Alcotest.(check int) "push back cancels" 1 (Graph.flow g a);
  Graph.reset_flow g;
  Alcotest.(check int) "reset" 0 (Graph.flow g a);
  Alcotest.(check int) "reset partner" 0 (Graph.residual_capacity g (a lxor 1));
  ignore b

let test_graph_excess () =
  let g = Graph.create ~num_nodes:4 in
  let a1 = Graph.add_arc g ~src:0 ~dst:1 ~capacity:2 ~cost:0 in
  let a2 = Graph.add_arc g ~src:1 ~dst:2 ~capacity:2 ~cost:0 in
  Graph.push g a1 2;
  Graph.push g a2 1;
  Alcotest.(check int) "inner node excess" 1 (Graph.excess g 1);
  Alcotest.(check int) "source excess" (-2) (Graph.excess g 0);
  Alcotest.(check int) "sink side" 1 (Graph.excess g 2);
  Alcotest.(check int) "isolated node" 0 (Graph.excess g 3)

(* One integer Dijkstra pass from zero potentials, on fresh scratch. *)
let dijkstra g ~source ?stop_at () =
  let n = Graph.node_count g in
  let dist = Array.make n 0 and parent_arc = Array.make n 0 in
  Shortest_path.dijkstra_int g ~source ~pi:(Array.make n 0) ~dist ~parent_arc
    ~queue:(Geacc_pqueue.Int_bucket_queue.create ())
    ?stop_at ();
  (dist, parent_arc)

(* A small fixed graph with a known shortest-path structure. *)
let diamond () =
  let g = Graph.create ~num_nodes:4 in
  (* 0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (2), 1 -> 3 (6), 2 -> 3 (1) *)
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:10 ~cost:1);
  ignore (Graph.add_arc g ~src:0 ~dst:2 ~capacity:10 ~cost:4);
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~capacity:10 ~cost:2);
  ignore (Graph.add_arc g ~src:1 ~dst:3 ~capacity:10 ~cost:6);
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~capacity:10 ~cost:1);
  g

let test_dijkstra_diamond () =
  let g = diamond () in
  let dist, parent_arc = dijkstra g ~source:0 () in
  Alcotest.(check (array int)) "distances" [| 0; 1; 3; 4 |] dist;
  (* Path to 3 goes through 2. *)
  Alcotest.(check int) "parent of 3 comes from 2" 2
    (Graph.src g parent_arc.(3))

let test_dijkstra_respects_capacity () =
  let g = diamond () in
  (* Close 1 -> 2 (without opening a negative-cost reverse arc, which
     zero potentials could not reduce); shortest to 2 becomes the direct 4
     arc. *)
  Graph.finalize_csr g;
  for p = Graph.out_begin g 1 to Graph.res_begin g 1 - 1 do
    let a = Graph.pos_arc g p in
    if Graph.dst g a = 2 then Graph.unsafe_set_residual_capacity g a 0
  done;
  let dist, _ = dijkstra g ~source:0 () in
  Alcotest.(check int) "rerouted distance" 4 dist.(2)

let test_dijkstra_unreachable () =
  let g = Graph.create ~num_nodes:3 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:1 ~cost:1);
  let dist, parent_arc = dijkstra g ~source:0 () in
  Alcotest.(check int) "node 2 unreachable" max_int dist.(2);
  Alcotest.(check int) "and has no parent" (-1) parent_arc.(2)

(* The reference's own Bellman–Ford: negative arcs are relaxed, negative
   cycles refused. *)
let test_reference_negative_arc () =
  let arcs =
    [
      { Ref_mcf.src = 0; dst = 1; cap = 1; cost = 5 };
      { Ref_mcf.src = 0; dst = 2; cap = 1; cost = 1 };
      { Ref_mcf.src = 2; dst = 1; cap = 1; cost = -3 };
    ]
  in
  match Ref_mcf.distances ~n:3 ~source:0 arcs with
  | None -> Alcotest.fail "no negative cycle here"
  | Some dist -> Alcotest.(check int) "negative arc used" (-2) dist.(1)

let test_reference_detects_cycle () =
  let arcs =
    [
      { Ref_mcf.src = 0; dst = 1; cap = 1; cost = 1 };
      { Ref_mcf.src = 1; dst = 2; cap = 5; cost = -4 };
      { Ref_mcf.src = 2; dst = 1; cap = 5; cost = 1 };
    ]
  in
  Alcotest.(check bool) "negative cycle detected" true
    (Ref_mcf.distances ~n:3 ~source:0 arcs = None)

(* The same random multigraph as a Graph.t and as the reference's arc
   list. *)
let random_graph rng ~n ~arcs ~max_cost =
  let g = Graph.create ~num_nodes:n in
  let listed = ref [] in
  for _ = 1 to arcs do
    let src = Rng.int rng n and dst = Rng.int rng n in
    if src <> dst then begin
      let cap = 1 + Rng.int rng 5 and cost = Rng.int rng (max_cost + 1) in
      ignore (Graph.add_arc g ~src ~dst ~capacity:cap ~cost);
      listed := { Ref_mcf.src; dst; cap; cost } :: !listed
    end
  done;
  (g, List.rev !listed)

let test_dijkstra_agrees_with_reference () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 50 do
    let g, arcs = random_graph rng ~n:8 ~arcs:20 ~max_cost:10 in
    let dist, _ = dijkstra g ~source:0 () in
    match Ref_mcf.distances ~n:8 ~source:0 arcs with
    | None -> Alcotest.fail "non-negative costs cannot cycle"
    | Some reference ->
        Alcotest.(check (array int)) "distance agreement" reference dist
  done

(* Mid-solve, where the lazy walk has something to defer: non-zero
   potentials, live reverse arcs and a stop bound. Every node whose exact
   reduced distance [delta v - pi v] (Bellman–Ford over the residual arcs;
   [pi source] stays 0) lies below the sink's must be settled at exactly
   that distance — what the capped potential update reads. *)
let test_dijkstra_mid_solve () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 40 do
    let n = 10 in
    let g, _ = random_graph rng ~n ~arcs:30 ~max_cost:20 in
    let sink = n - 1 in
    let pi = Array.make n 0 and dist = Array.make n 0 in
    let parent_arc = Array.make n 0 in
    let queue = Geacc_pqueue.Int_bucket_queue.create () in
    let rounds = ref 0 in
    while !rounds < 6 do
      Shortest_path.dijkstra_int g ~source:0 ~pi ~dist ~parent_arc ~queue
        ~stop_at:sink ();
      if dist.(sink) = max_int then rounds := 6
      else begin
        let residual = ref [] in
        for a = Graph.arc_count g - 1 downto 0 do
          if Graph.residual_capacity g a > 0 then
            residual :=
              { Ref_mcf.src = Graph.src g a; dst = Graph.dst g a;
                cap = Graph.residual_capacity g a; cost = Graph.icost g a }
              :: !residual
        done;
        (match Ref_mcf.distances ~n ~source:0 !residual with
        | None -> Alcotest.fail "a min-cost flow's residual has no negative cycle"
        | Some delta ->
            Array.iteri
              (fun v dv ->
                if dv < max_int && dv - pi.(v) < dist.(sink) then
                  Alcotest.(check int)
                    (Printf.sprintf "round %d node %d settled exactly" !rounds v)
                    (dv - pi.(v)) dist.(v))
              delta);
        let cap = dist.(sink) in
        Array.iteri (fun v d -> pi.(v) <- pi.(v) + Int.min d cap) dist;
        let v = ref sink in
        while !v <> 0 do
          let a = parent_arc.(!v) in
          Graph.push g a 1;
          v := Graph.src g a
        done;
        incr rounds
      end
    done
  done

let test_maxflow_known () =
  (* Classic: two disjoint augmenting paths plus a cross arc; with zero
     costs the SSP run is a plain max-flow. *)
  let g = Graph.create ~num_nodes:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:3 ~cost:0);
  ignore (Graph.add_arc g ~src:0 ~dst:2 ~capacity:2 ~cost:0);
  ignore (Graph.add_arc g ~src:1 ~dst:3 ~capacity:2 ~cost:0);
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~capacity:3 ~cost:0);
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~capacity:1 ~cost:0);
  match Mcf.solve_int g ~source:0 ~sink:3 () with
  | None -> Alcotest.fail "zero costs are in the domain"
  | Some o -> Alcotest.(check int) "max flow 5" 5 o.Mcf.iflow

let solve_exn g ~source ~sink ?stop_below ?audit_after_dijkstra () =
  match Mcf.solve_int g ~source ~sink ?stop_below ?audit_after_dijkstra () with
  | Some o -> o
  | None -> Alcotest.fail "network unexpectedly outside the kernel's domain"

let test_maxflow_conservation () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 30 do
    let g, _ = random_graph rng ~n:7 ~arcs:15 ~max_cost:10 in
    let f = (solve_exn g ~source:0 ~sink:6 ()).Mcf.iflow in
    Alcotest.(check bool) "non-negative value" true (f >= 0);
    for n = 1 to 5 do
      Alcotest.(check int) "conservation at inner nodes" 0 (Graph.excess g n)
    done;
    Alcotest.(check int) "sink receives the flow" f (Graph.excess g 6)
  done

(* Brute-force minimum cost of a matching with exactly [k] pairs (every
   row and column used at most once). *)
let brute_force_assignment ?k costs =
  let n = Array.length costs in
  let k = Option.value k ~default:n in
  let best = ref max_int in
  let rec go used acc i picked =
    if picked = k then best := Int.min !best acc
    else if i < n && n - i >= k - picked then begin
      go used acc (i + 1) picked;
      for j = 0 to n - 1 do
        if not used.(j) then begin
          used.(j) <- true;
          go used (acc + costs.(i).(j)) (i + 1) (picked + 1);
          used.(j) <- false
        end
      done
    end
  in
  go (Array.make n false) 0 0 0;
  !best

let assignment_graph costs =
  let n = Array.length costs in
  let g = Graph.create ~num_nodes:(2 + (2 * n)) in
  let src = 0 and sink = 1 in
  for i = 0 to n - 1 do
    ignore (Graph.add_arc g ~src ~dst:(2 + i) ~capacity:1 ~cost:0);
    ignore (Graph.add_arc g ~src:(2 + n + i) ~dst:sink ~capacity:1 ~cost:0)
  done;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      ignore
        (Graph.add_arc g ~src:(2 + i) ~dst:(2 + n + j) ~capacity:1
           ~cost:costs.(i).(j))
    done
  done;
  (g, src, sink)

let random_costs rng n =
  Array.init n (fun _ -> Array.init n (fun _ -> Rng.int rng 1000))

let test_mcf_matches_brute_force () =
  let rng = Rng.create ~seed:6 in
  for _ = 1 to 25 do
    let n = 2 + Rng.int rng 4 in
    let costs = random_costs rng n in
    let g, source, sink = assignment_graph costs in
    let outcome = solve_exn g ~source ~sink () in
    Alcotest.(check int) "perfect assignment" n outcome.Mcf.iflow;
    Alcotest.(check int) "optimal cost" (brute_force_assignment costs)
      outcome.Mcf.icost
  done

(* After an update the sink's potential is the true cost of the path just
   accepted (DESIGN.md §15.2), so the audit hook sees every path cost. *)
let path_costs costs =
  let g, source, sink = assignment_graph costs in
  let seen = ref [] in
  let (_ : Mcf.int_outcome) =
    solve_exn g ~source ~sink
      ~audit_after_dijkstra:(fun ~potential -> seen := potential.(sink) :: !seen)
      ()
  in
  List.rev !seen

let test_mcf_per_unit_prefix () =
  (* After the k-th unit the flow must be a min-cost flow of value k: the
     first k path costs (unit capacities, one unit per path) sum to the
     cheapest k-pair assignment. *)
  let rng = Rng.create ~seed:7 in
  let n = 4 in
  let costs = random_costs rng n in
  let acc = ref 0 in
  List.iteri
    (fun i c ->
      acc := !acc + c;
      Alcotest.(check int) "prefix optimality"
        (brute_force_assignment ~k:(i + 1) costs)
        !acc)
    (path_costs costs)

let test_mcf_path_costs_non_decreasing () =
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 20 do
    let costs = random_costs rng (3 + Rng.int rng 3) in
    ignore
      (List.fold_left
         (fun last c ->
           Alcotest.(check bool) "non-decreasing path costs" true (c >= last);
           c)
         0 (path_costs costs))
  done

let test_mcf_stop_below_stops_before_push () =
  let costs = [| [| 10; 90 |]; [| 80; 95 |] |] in
  let g, source, sink = assignment_graph costs in
  (* Refuse any path costing 50 or more: only the 10 unit goes through. *)
  let outcome = solve_exn g ~source ~sink ~stop_below:50 () in
  Alcotest.(check int) "one unit" 1 outcome.Mcf.iflow;
  Alcotest.(check int) "its cost" 10 outcome.Mcf.icost

let test_mcf_negative_costs () =
  (* No Bellman–Ford seeding: a capacitated negative arc is outside the
     domain, refused before the graph is touched. *)
  let g = Graph.create ~num_nodes:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:1 ~cost:2);
  ignore (Graph.add_arc g ~src:0 ~dst:2 ~capacity:1 ~cost:0);
  let neg = Graph.add_arc g ~src:2 ~dst:1 ~capacity:1 ~cost:(-1) in
  ignore (Graph.add_arc g ~src:1 ~dst:3 ~capacity:2 ~cost:0);
  Alcotest.(check bool) "refused" true
    (Mcf.solve_int g ~source:0 ~sink:3 () = None);
  Alcotest.(check int) "no flow pushed" 0 (Graph.excess g 3);
  (* A negative arc without capacity can never carry flow: accepted. *)
  Graph.unsafe_set_residual_capacity g neg 0;
  Alcotest.(check bool) "uncapacitated negative arc accepted" true
    (Mcf.solve_int g ~source:0 ~sink:3 () <> None)

let test_mcf_negative_cycle () =
  let g = Graph.create ~num_nodes:4 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:1 ~cost:0);
  ignore (Graph.add_arc g ~src:1 ~dst:2 ~capacity:5 ~cost:(-2));
  ignore (Graph.add_arc g ~src:2 ~dst:1 ~capacity:5 ~cost:1);
  ignore (Graph.add_arc g ~src:2 ~dst:3 ~capacity:1 ~cost:0);
  Alcotest.(check bool) "negative cycle outside the domain" true
    (Mcf.solve_int g ~source:0 ~sink:3 () = None)

let test_mcf_agrees_with_reference () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 40 do
    let g, arcs = random_graph rng ~n:8 ~arcs:18 ~max_cost:20 in
    let stop_below = if Rng.int rng 2 = 0 then None else Some 25 in
    let reference = Ref_mcf.solve ~n:8 ~source:0 ~sink:7 ?stop_below arcs in
    let outcome = solve_exn g ~source:0 ~sink:7 ?stop_below () in
    Alcotest.(check int) "flow value" reference.Ref_mcf.flow outcome.Mcf.iflow;
    Alcotest.(check int) "flow cost" reference.Ref_mcf.cost outcome.Mcf.icost
  done

(* The overflow precondition, just inside and just outside: on the path
   0 -> 1 -> 2 -> 3 (n = 4) every arc may cost up to 2^61 / 4. *)
let test_mcf_overflow_bound () =
  let path cost =
    let g = Graph.create ~num_nodes:4 in
    for v = 0 to 2 do
      ignore (Graph.add_arc g ~src:v ~dst:(v + 1) ~capacity:1 ~cost)
    done;
    g
  in
  let c = Mcf.overflow_limit / 4 in
  (match Mcf.solve_int (path c) ~source:0 ~sink:3 () with
  | None -> Alcotest.fail "n * C = 2^61 is inside the bound"
  | Some o ->
      Alcotest.(check int) "flow" 1 o.Mcf.iflow;
      Alcotest.(check int) "exact cost" (3 * c) o.Mcf.icost);
  Alcotest.(check bool) "n * C > 2^61 is refused" true
    (Mcf.solve_int (path (c + 1)) ~source:0 ~sink:3 () = None);
  (* Total cost: source out-capacity times the largest path cost. *)
  let wide cap cost =
    let g = Graph.create ~num_nodes:2 in
    ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:cap ~cost);
    g
  in
  let cap = Mcf.overflow_limit / 1024 in
  (match Mcf.solve_int (wide cap 1024) ~source:0 ~sink:1 () with
  | None -> Alcotest.fail "F * P = 2^61 is inside the bound"
  | Some o -> Alcotest.(check int) "total cost" Mcf.overflow_limit o.Mcf.icost);
  Alcotest.(check bool) "F * P > 2^61 is refused" true
    (Mcf.solve_int (wide (cap + 1) 1024) ~source:0 ~sink:1 () = None);
  Alcotest.(check bool) "unless stop_below caps the path cost" true
    (Mcf.solve_int (wide (cap + 1) 1024) ~source:0 ~sink:1 ~stop_below:1024 ()
    <> None)

(* The SSP at a size the fuzz pin (|V| <= 4) never reaches: the TABLE III
   generator cut to |V| = 25, |U| = 250 (seed 0), 675 augmentations over
   6,250 pair arcs. Flow value, integer cost, augmentation count and
   MaxSum bits are pinned; any change to the kernel's relaxation order
   that changes a path shows here. Under GEACC_AUDIT=1 every augmentation
   also runs the CSR, capacity and conservation audits. *)
let test_mcf_pinned_at_scale () =
  let module Synthetic = Geacc_datagen.Synthetic in
  let module Mincostflow = Geacc_core.Mincostflow in
  let instance =
    Synthetic.generate ~seed:0
      { Synthetic.default with Synthetic.n_events = 25; n_users = 250 }
  in
  let m, st = Mincostflow.solve_with_stats instance in
  Alcotest.(check int) "flow value" 675 st.Mincostflow.flow_value;
  Alcotest.(check int) "augmentations" 675 st.Mincostflow.augmentations;
  Alcotest.(check int) "integer cost" 237737661405
    (int_of_float
       (st.Mincostflow.flow_cost *. float_of_int Mincostflow.cost_scale));
  Alcotest.(check string) "MaxSum bits" "40762544c422523d"
    (Printf.sprintf "%Lx" (Int64.bits_of_float (Geacc_core.Matching.maxsum m)))

(* The similarity-pruned network on the three [*-tight] cells of
   [bench/main.exe sparse-flow]: the TABLE III generator (seed 1) under
   uniform, normal-mixture and Zipf attributes, re-wrapped in a euclidean
   similarity of range T/2.4, T/2.4 and T/12, so that pairs farther apart
   than the range have similarity exactly 0 and get no arc. At |V| = 100,
   |U| = 400, the cells' size, the (v,u) arc counts are pinned; cut to
   |V| = 25, |U| = 250 each network is also solved, with flow value,
   augmentation count and MaxSum bits pinned. Under GEACC_AUDIT=1 each
   build also proves that every pruned pair has similarity 0. *)
let test_mcf_pruned_pinned () =
  let module Synthetic = Geacc_datagen.Synthetic in
  let module Instance = Geacc_core.Instance in
  let module Mincostflow = Geacc_core.Mincostflow in
  let tight cfg denom =
    let instance = Synthetic.generate ~seed:1 cfg in
    Instance.create
      ~sim:
        (Geacc_core.Similarity.euclidean ~dim:(Instance.dim instance)
           ~range:(cfg.Synthetic.t_max /. denom))
      ~events:(Instance.events instance) ~users:(Instance.users instance)
      ~conflicts:(Instance.conflicts instance) ()
  in
  List.iter
    (fun (name, attrs, denom, arcs, (flow, bits)) ->
      let cfg = { Synthetic.default with Synthetic.n_users = 400; attrs } in
      let net = Mincostflow.build_network (tight cfg denom) in
      Alcotest.(check int) (name ^ " pair arcs") arcs net.Mincostflow.pair_arcs;
      let m, st =
        Mincostflow.solve_with_stats
          (tight { cfg with Synthetic.n_events = 25; n_users = 250 } denom)
      in
      Alcotest.(check int) (name ^ " flow value") flow st.Mincostflow.flow_value;
      Alcotest.(check int) (name ^ " augmentations") flow
        st.Mincostflow.augmentations;
      Alcotest.(check string) (name ^ " MaxSum bits") bits
        (Printf.sprintf "%Lx"
           (Int64.bits_of_float (Geacc_core.Matching.maxsum m))))
    [
      ("uniform-tight", Synthetic.Attr_uniform, 2.4, 23873,
       (597, "4059db456fb2d0a9"));
      ("normal-tight", Synthetic.Attr_normal_mixture, 2.4, 31242,
       (632, "4060ff7e448ae0d7"));
      ("zipf-tight", Synthetic.Attr_zipf 1.3, 12., 15457,
       (367, "406586aa04a58e30"));
    ]

let suite =
  [
    Alcotest.test_case "graph basics" `Quick test_graph_basics;
    Alcotest.test_case "graph excess" `Quick test_graph_excess;
    Alcotest.test_case "dijkstra diamond" `Quick test_dijkstra_diamond;
    Alcotest.test_case "dijkstra respects capacity" `Quick
      test_dijkstra_respects_capacity;
    Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
    Alcotest.test_case "bellman-ford negative arc" `Quick
      test_reference_negative_arc;
    Alcotest.test_case "bellman-ford cycle detection" `Quick
      test_reference_detects_cycle;
    Alcotest.test_case "dijkstra = bellman-ford" `Quick
      test_dijkstra_agrees_with_reference;
    Alcotest.test_case "dijkstra = bellman-ford mid-solve" `Quick
      test_dijkstra_mid_solve;
    Alcotest.test_case "maxflow known value" `Quick test_maxflow_known;
    Alcotest.test_case "maxflow conservation" `Quick test_maxflow_conservation;
    Alcotest.test_case "mcf = brute force assignment" `Quick
      test_mcf_matches_brute_force;
    Alcotest.test_case "mcf per-unit prefix optimality" `Quick
      test_mcf_per_unit_prefix;
    Alcotest.test_case "mcf path costs non-decreasing" `Quick
      test_mcf_path_costs_non_decreasing;
    Alcotest.test_case "mcf should_augment pre-push" `Quick
      test_mcf_stop_below_stops_before_push;
    Alcotest.test_case "mcf negative costs" `Quick test_mcf_negative_costs;
    Alcotest.test_case "mcf negative cycle" `Quick test_mcf_negative_cycle;
    Alcotest.test_case "mcf saturates to max flow" `Quick
      test_mcf_agrees_with_reference;
    Alcotest.test_case "mcf overflow bound" `Quick test_mcf_overflow_bound;
    Alcotest.test_case "mcf pinned at scale (25x250)" `Quick
      test_mcf_pinned_at_scale;
    Alcotest.test_case "mcf pruned networks pinned (tight cells)" `Quick
      test_mcf_pruned_pinned;
  ]
