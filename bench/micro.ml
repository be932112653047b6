(* Bechamel micro-benchmarks of the solver kernels and substrates: one
   Test.make per experiment family, all run from the same executable as the
   paper-figure harness. Reported as mean ns/run from the OLS fit. *)

open Bechamel
module Solver = Geacc_core.Solver
module Synthetic = Geacc_datagen.Synthetic

let small_instance =
  lazy
    (Synthetic.generate ~seed:1
       {
         Synthetic.default with
         Synthetic.n_events = 20;
         n_users = 100;
       })

let tiny_instance =
  lazy
    (Synthetic.generate ~seed:1
       {
         Synthetic.default with
         Synthetic.n_events = 5;
         n_users = 12;
         event_capacity = Synthetic.Cap_uniform 5;
         user_capacity = Synthetic.Cap_uniform 2;
       })

let solver_test name algorithm instance_lazy =
  Test.make ~name
    (Staged.stage (fun () ->
         let instance = Lazy.force instance_lazy in
         ignore (Solver.run algorithm instance)))

let heap_test =
  Test.make ~name:"binary-heap push/pop 1k"
    (Staged.stage (fun () ->
         let h = Geacc_pqueue.Binary_heap.create ~cmp:Int.compare () in
         for i = 0 to 999 do
           Geacc_pqueue.Binary_heap.push h ((i * 7919) mod 1000)
         done;
         while not (Geacc_pqueue.Binary_heap.is_empty h) do
           ignore (Geacc_pqueue.Binary_heap.pop_exn h)
         done))

(* The Dijkstra queue's own access pattern: monotone keys, each push at
   or above the last popped key, drained through the unboxed triple. *)
let bucket_queue_test =
  Test.make ~name:"int-bucket-queue push/drop 1k"
    (Staged.stage (fun () ->
         let q = Geacc_pqueue.Int_bucket_queue.create () in
         for i = 0 to 999 do
           Geacc_pqueue.Int_bucket_queue.push q ((i * 7919) mod 1000) i
         done;
         let acc = ref 0 in
         while not (Geacc_pqueue.Int_bucket_queue.is_empty q) do
           acc := !acc + Geacc_pqueue.Int_bucket_queue.min_payload q;
           Geacc_pqueue.Int_bucket_queue.drop_min q
         done;
         ignore !acc))

(* Dijkstra over a ring-with-chords residual network: every node has a few
   outgoing arcs, so the run exercises the bucket queue, the arc walk and
   the reduced-cost arithmetic — the exact inner loop of the min-cost-flow
   solver. *)
let dijkstra_graph =
  lazy
    (let n = 1000 in
     let g = Geacc_flow.Graph.create ~num_nodes:n in
     for v = 0 to n - 1 do
       let add d cost =
         ignore
           (Geacc_flow.Graph.add_arc g ~src:v ~dst:((v + d) mod n) ~capacity:2
              ~cost)
       in
       add 1 1;
       add 7 (3 + (v mod 5));
       add 131 (10 + (v mod 11))
     done;
     g)

let dijkstra_test =
  let scratch =
    lazy
      (let n = Geacc_flow.Graph.node_count (Lazy.force dijkstra_graph) in
       ( Array.make n 0,
         Array.make n 0,
         Array.make n 0,
         Geacc_pqueue.Int_bucket_queue.create () ))
  in
  Test.make ~name:"dijkstra_int (1k nodes, 3k arcs)"
    (Staged.stage (fun () ->
         let g = Lazy.force dijkstra_graph in
         let pi, dist, parent_arc, queue = Lazy.force scratch in
         Geacc_flow.Shortest_path.dijkstra_int g ~source:0 ~pi ~dist
           ~parent_arc ~queue ~stop_at:500 ()))

(* Conflict-resolution probe: does event [v] conflict with any event the
   user already holds? One word-AND scan per call on the user's bitset. *)
let conflict_probe_test =
  let matching =
    lazy
      (let instance = Lazy.force small_instance in
       let m = Geacc_core.Matching.create instance in
       for v = 0 to Geacc_core.Instance.n_events instance - 1 do
         if v mod 3 = 0 then
           match Geacc_core.Matching.add m ~v ~u:0 with Ok _ | Error _ -> ()
       done;
       m)
  in
  Test.make ~name:"Matching.user_conflicts_with probe x20"
    (Staged.stage (fun () ->
         let m = Lazy.force matching in
         let hits = ref 0 in
         for v = 0 to 19 do
           if Geacc_core.Matching.user_conflicts_with m ~u:0 ~v then incr hits
         done;
         ignore !hits))

(* The kernel every neighbour query runs: open a Ranked scan over 10k
   points at d = 20 (an event's list at greedy-scale's shape) and read its
   first 100 ranks in order. *)
let scan_points =
  lazy
    (let rng = Geacc_util.Rng.create ~seed:1 in
     Array.init 10_000 (fun _ ->
         Array.init 20 (fun _ -> Geacc_util.Rng.float rng 10_000.)))

let ranked_scan_test =
  let query = Array.init 20 (fun k -> float_of_int (500 * k)) in
  Test.make ~name:"Ranked.scan open + 100 ranks (10k pts, d=20)"
    (Staged.stage (fun () ->
         let points = Lazy.force scan_points in
         let list =
           Geacc_index.Ranked.scan ~n:(Array.length points) ~cutoff:infinity
             (fun i -> Geacc_index.Point.dist query points.(i))
         in
         let acc = ref 0 in
         for rank = 1 to 100 do
           if Geacc_index.Ranked.reach list rank then
             acc := !acc + Geacc_index.Ranked.id list rank
         done;
         ignore !acc))

(* One greedy-scale op at its smoke shape (|V| = 100, |U| = 2000,
   c_v ~ U[1,200]): a cold Greedy-GEACC solve, which opens every event's
   neighbour list (the instance is rebuilt from the same data on each run,
   so no list is reused) and walks them. *)
let greedy_scale_instance =
  lazy
    (Synthetic.generate ~seed:1
       {
         Synthetic.default with
         Synthetic.n_users = 2000;
         event_capacity = Synthetic.Cap_uniform 200;
       })

let greedy_scale_test =
  Test.make ~name:"Greedy-GEACC (100x2000, c_v<=200)"
    (Staged.stage (fun () ->
         let base = Lazy.force greedy_scale_instance in
         let instance =
           Geacc_core.Instance.create
             ~sim:(Geacc_core.Instance.similarity base)
             ~events:(Geacc_core.Instance.events base)
             ~users:(Geacc_core.Instance.users base)
             ~conflicts:(Geacc_core.Instance.conflicts base)
             ()
         in
         ignore (Geacc_core.Greedy.solve instance)))

(* Network construction on the TABLE III default shape: the candidate
   queries, arc emission and degree counting of MinCostFlow-GEACC's Step
   1. *)
let mcf_instance =
  lazy
    (Synthetic.generate ~seed:1
       { Synthetic.default with Synthetic.n_events = 100; n_users = 1000 })

let mcf_build_test =
  Test.make ~name:"MCF network build (100x1000)"
    (Staged.stage (fun () ->
         let instance = Lazy.force mcf_instance in
         ignore (Geacc_core.Mincostflow.build_network instance)))

(* One SSP pass in mid-solve: the TABLE III default assignment network
   (100 events x 1000 users) after 1000 unit augmentations, with the
   potentials they left. Unlike the ring above it has cost spread on the
   pair arcs and live residual arcs, so it times the lazy forward walk and
   the residual runs the min-cost-flow solver actually scans. The
   augmentations run once, before timing starts (a [uniq] resource). *)
let mid_solve_pass () =
  let net =
    Geacc_core.Mincostflow.build_network (Lazy.force mcf_instance)
  in
  let g = net.Geacc_core.Mincostflow.graph in
  let source = net.Geacc_core.Mincostflow.source
  and sink = net.Geacc_core.Mincostflow.sink in
  let n = Geacc_flow.Graph.node_count g in
  let pi = Array.make n 0
  and dist = Array.make n 0
  and parent_arc = Array.make n 0
  and queue = Geacc_pqueue.Int_bucket_queue.create () in
  let pass () =
    Geacc_flow.Shortest_path.dijkstra_int g ~source ~pi ~dist ~parent_arc
      ~queue ~stop_at:sink ()
  in
  for _ = 1 to 1000 do
    pass ();
    let d = dist.(sink) in
    let path_cost = d + pi.(sink) - pi.(source) in
    if d = max_int || path_cost >= Geacc_core.Mincostflow.cost_scale then
      invalid_arg "micro: assignment network saturated early";
    Array.iteri (fun v dv -> pi.(v) <- pi.(v) + Int.min dv d) dist;
    let v = ref sink in
    while !v <> source do
      let a = parent_arc.(!v) in
      Geacc_flow.Graph.push g a 1;
      v := Geacc_flow.Graph.src g a
    done
  done;
  pass

let mid_solve_pass_test =
  Test.make_with_resource
    ~name:"dijkstra_int pass (100x1000 network, 1k units routed)" Test.uniq
    ~allocate:mid_solve_pass ~free:ignore
    (Staged.stage (fun pass -> pass ()))

(* Budget polling overhead: the same solver run with a disarmed budget
   (the default) and with an armed budget whose deadline is far away, so
   every iteration pays the cooperative poll but the run never degrades.
   Comparing against the plain variants above measures the robustness
   layer's hot-loop tax (target: <= 2%, see EXPERIMENTS.md). *)
let armed_solver_test name algorithm instance_lazy =
  Test.make ~name
    (Staged.stage (fun () ->
         let instance = Lazy.force instance_lazy in
         let deadline = Geacc_robust.Budget.create ~timeout_s:3600. () in
         ignore (Solver.run ~deadline algorithm instance)))

let tests =
  Test.make_grouped ~name:"geacc"
    [
      solver_test "Greedy-GEACC (20x100)" Solver.Greedy small_instance;
      greedy_scale_test;
      solver_test "MinCostFlow-GEACC (20x100)" Solver.Min_cost_flow
        small_instance;
      solver_test "Random-V (20x100)" Solver.Random_v small_instance;
      solver_test "Prune-GEACC (5x12)" Solver.Prune tiny_instance;
      armed_solver_test "MinCostFlow-GEACC armed budget (20x100)"
        Solver.Min_cost_flow small_instance;
      armed_solver_test "Prune-GEACC armed budget (5x12)" Solver.Prune
        tiny_instance;
      heap_test;
      bucket_queue_test;
      dijkstra_test;
      mid_solve_pass_test;
      conflict_probe_test;
      ranked_scan_test;
      mcf_build_test;
    ]

let run () =
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.6) ~kde:None () in
  let raw =
    Benchmark.all cfg
      [ Toolkit.Instance.monotonic_clock ]
      tests
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table =
    Geacc_util.Table.create ~title:"Micro-benchmarks (Bechamel, OLS fit)"
      ~headers:[ "benchmark"; "ns/run" ]
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ ns ] ->
          Geacc_util.Table.add_row table [ name; Printf.sprintf "%.0f" ns ]
      | _ -> Geacc_util.Table.add_row table [ name; "n/a" ])
    results;
  Geacc_util.Table.print table
