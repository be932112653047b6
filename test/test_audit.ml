(* Audit layer: every checker fires on a deliberately corrupted structure
   with the exact violation named, stays quiet on healthy structures, and is
   a no-op when auditing is disabled. *)

open Geacc_core
module Audit = Geacc_check.Audit
module Graph = Geacc_flow.Graph
module Binary_heap = Geacc_pqueue.Binary_heap
module Int_bucket_queue = Geacc_pqueue.Int_bucket_queue
module Synthetic = Geacc_datagen.Synthetic

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec at i =
    i + ln <= lh && (String.equal (String.sub haystack i ln) needle || at (i + 1))
  in
  at 0

(* Runs the thunk expecting [Audit.Violation]; checks the detail mentions
   the invariant by substring so messages stay precise. *)
let expect_violation name ~detail_part f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Audit.Violation, got a result")
  | exception Audit.Violation { detail; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: detail %S mentions %S" name detail detail_part)
        true
        (contains detail detail_part)

(* -- gating -- *)

let test_gate_toggling () =
  let initial = Audit.enabled () in
  Audit.with_enabled true (fun () ->
      Alcotest.(check bool) "forced on" true (Audit.enabled ());
      Audit.with_enabled false (fun () ->
          Alcotest.(check bool) "nested off" false (Audit.enabled ()));
      Alcotest.(check bool) "restored inner" true (Audit.enabled ()));
  Alcotest.(check bool) "restored" initial (Audit.enabled ());
  (match
     Audit.with_enabled true (fun () -> raise Exit)
   with
  | () -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  Alcotest.(check bool) "restored after exception" initial (Audit.enabled ())

(* -- flow network -- *)

(* 0 -> 1 -> 2 -> 3, unit costs, capacity 2 each. *)
let path_graph () =
  let g = Graph.create ~num_nodes:4 in
  let a01 = Graph.add_arc g ~src:0 ~dst:1 ~capacity:2 ~cost:1 in
  let a12 = Graph.add_arc g ~src:1 ~dst:2 ~capacity:2 ~cost:1 in
  let a23 = Graph.add_arc g ~src:2 ~dst:3 ~capacity:2 ~cost:1 in
  (g, a01, a12, a23)

let test_flow_conservation () =
  let g, a01, a12, a23 = path_graph () in
  (* Healthy: a full source->sink augmentation conserves flow. *)
  List.iter (fun a -> Graph.push g a 1) [ a01; a12; a23 ];
  Audit.Flow.check_conservation ~site:"test" g ~source:0 ~sink:3;
  (* Corrupt: one extra unit on the middle arc strands excess at node 2. *)
  Graph.push g a12 1;
  expect_violation "conservation" ~detail_part:"violates conservation"
    (fun () -> Audit.Flow.check_conservation ~site:"test" g ~source:0 ~sink:3)

let test_flow_capacity_negative () =
  let g, a01, _, _ = path_graph () in
  Audit.Flow.check_capacity ~site:"test" g;
  Graph.unsafe_set_residual_capacity g a01 (-1);
  expect_violation "negative residual" ~detail_part:"negative residual"
    (fun () -> Audit.Flow.check_capacity ~site:"test" g)

let test_flow_capacity_leak () =
  let g, a01, _, _ = path_graph () in
  (* Residual grows without the partner shrinking: the pair leaks units. *)
  Graph.unsafe_set_residual_capacity g a01 5;
  expect_violation "capacity leak" ~detail_part:"leaks capacity" (fun () ->
      Audit.Flow.check_capacity ~site:"test" g)

let test_flow_reduced_costs () =
  let g, _, _, _ = path_graph () in
  (* Zero potentials on non-negative costs: healthy. *)
  Audit.Flow.check_reduced_costs_int ~site:"test" g
    ~potential:(Array.make 4 0);
  (* A potential spike makes arc 0->1 look like cost 1 + 0 - 5 < 0. *)
  expect_violation "reduced cost" ~detail_part:"negative integer reduced cost"
    (fun () ->
      Audit.Flow.check_reduced_costs_int ~site:"test" g
        ~potential:[| 0; 5; 0; 0 |])

let test_flow_cursor_violation () =
  let g, a01, _, _ = path_graph () in
  Graph.finalize_csr g;
  Audit.Flow.check_csr ~site:"test" g;
  (* Force node 0's cursor past its only arc, which still has capacity. *)
  (Graph.unsafe_csr_cursor g).(0) <- Graph.res_begin g 0;
  expect_violation "cursor past a live arc" ~detail_part:"passes position"
    (fun () -> Audit.Flow.check_csr ~site:"test" g);
  (* And onto a saturated one: the cursor must sit on capacity. *)
  (Graph.unsafe_csr_cursor g).(0) <- Graph.arc_position g a01;
  Audit.Flow.check_csr ~site:"test" g;
  Graph.unsafe_set_residual_capacity g a01 0;
  (Graph.unsafe_csr_cursor g).(0) <- Graph.arc_position g a01;
  expect_violation "cursor on a dead arc" ~detail_part:"sits on position"
    (fun () -> Audit.Flow.check_csr ~site:"test" g)

(* -- heaps --

   Corruption trick: the heaps order by a caller-supplied comparison, so a
   comparison that reads a mutable flag can be flipped after the structure
   is built, invalidating the heap property without touching internals. *)

let test_binary_heap_invariant () =
  let flip = ref false in
  let cmp a b = if !flip then Int.compare b a else Int.compare a b in
  let h = Binary_heap.create ~cmp () in
  List.iter (Binary_heap.push h) [ 5; 1; 4; 2; 3 ];
  Audit.Heap.check_binary ~site:"test" h;
  flip := true;
  expect_violation "binary heap" ~detail_part:"binary heap order" (fun () ->
      Audit.Heap.check_binary ~site:"test" h)

let test_bucket_queue_invariant () =
  let q = Int_bucket_queue.create () in
  List.iteri (fun i k -> Int_bucket_queue.push q k i) [ 50; 10; 90; 30 ];
  ignore (Int_bucket_queue.pop q);
  Audit.Heap.check_bucket ~site:"test" q;
  Alcotest.(check bool) "bucket queue healthy" true
    (Int_bucket_queue.check_invariant q)

(* -- matchings -- *)

let two_event_instance () =
  let sim = Similarity.euclidean ~dim:1 ~range:1. in
  let events =
    [|
      Entity.make ~id:0 ~attrs:[| 0.2 |] ~capacity:1;
      Entity.make ~id:1 ~attrs:[| 0.8 |] ~capacity:1;
    |]
  in
  let users =
    [|
      Entity.make ~id:0 ~attrs:[| 0.4 |] ~capacity:2;
      Entity.make ~id:1 ~attrs:[| 0.6 |] ~capacity:1;
    |]
  in
  let conflicts = Conflict.of_pairs ~n_events:2 [ (0, 1) ] in
  Instance.create ~sim ~events ~users ~conflicts ()

let test_matching_conflict_detected () =
  let t = two_event_instance () in
  let m = Matching.create t in
  (* Both events to user 0 despite the conflict: only unsafe_add allows it. *)
  Matching.unsafe_add m ~v:0 ~u:0;
  Matching.unsafe_add m ~v:1 ~u:0;
  Audit.with_enabled true (fun () ->
      expect_violation "conflicting assignment" ~detail_part:"conflicting"
        (fun () -> Validate.audit_matching ~site:"test" m))

let test_matching_over_capacity_detected () =
  let t = two_event_instance () in
  let m = Matching.create t in
  (* Event 0 has capacity 1; give it both users. *)
  Matching.unsafe_add m ~v:0 ~u:0;
  Matching.unsafe_add m ~v:0 ~u:1;
  Audit.with_enabled true (fun () ->
      expect_violation "event over capacity" ~detail_part:"over capacity"
        (fun () -> Validate.audit_matching ~site:"test" m))

let test_maxsum_drift_violation () =
  let t = two_event_instance () in
  let m = Matching.create t in
  let (_ : float) = Matching.add_exn m ~v:0 ~u:0 in
  Alcotest.(check bool) "healthy matching has no violations" true
    (Validate.check_matching m = []);
  Matching.unsafe_nudge_maxsum m 0.25;
  (* check_matching reports drift as a violation value, not an exception. *)
  (match Validate.check_matching m with
  | [ Validate.Maxsum_drift { incremental; recomputed } ] ->
      Alcotest.(check (float 1e-9)) "drift delta" 0.25
        (incremental -. recomputed)
  | vs ->
      Alcotest.failf "expected exactly Maxsum_drift, got %d violations"
        (List.length vs));
  Audit.with_enabled true (fun () ->
      expect_violation "drift under audit" ~detail_part:"MaxSum drift"
        (fun () -> Validate.audit_matching ~site:"test" m))

let test_audit_disabled_is_noop () =
  let t = two_event_instance () in
  let m = Matching.create t in
  Matching.unsafe_add m ~v:0 ~u:0;
  Matching.unsafe_add m ~v:1 ~u:0;
  Audit.with_enabled false (fun () ->
      Validate.audit_matching ~site:"test" m;
      Alcotest.(check pass) "no exception when disabled" () ())

(* -- healthy end-to-end runs with auditing on -- *)

let test_healthy_solvers_pass_audit () =
  let cfg =
    {
      Synthetic.default with
      Synthetic.n_events = 5;
      n_users = 10;
      dim = 2;
      event_capacity = Synthetic.Cap_uniform 3;
      user_capacity = Synthetic.Cap_uniform 2;
      conflict_ratio = 0.3;
    }
  in
  Audit.with_enabled true (fun () ->
      for seed = 1 to 5 do
        let t = Synthetic.generate ~seed cfg in
        let greedy = Greedy.solve t in
        let mcf = Mincostflow.solve t in
        let exact, _ = Exact.solve t in
        List.iter
          (fun m ->
            Alcotest.(check bool) "feasible under audit" true
              (Validate.check_matching m = []))
          [ greedy; mcf; exact ]
      done)

let suite =
  [
    Alcotest.test_case "gate toggling" `Quick test_gate_toggling;
    Alcotest.test_case "flow conservation violation" `Quick
      test_flow_conservation;
    Alcotest.test_case "flow negative residual" `Quick
      test_flow_capacity_negative;
    Alcotest.test_case "flow capacity leak" `Quick test_flow_capacity_leak;
    Alcotest.test_case "flow reduced costs" `Quick test_flow_reduced_costs;
    Alcotest.test_case "flow CSR cursor violation" `Quick
      test_flow_cursor_violation;
    Alcotest.test_case "binary heap invariant" `Quick
      test_binary_heap_invariant;
    Alcotest.test_case "bucket queue invariant" `Quick
      test_bucket_queue_invariant;
    Alcotest.test_case "matching conflict detected" `Quick
      test_matching_conflict_detected;
    Alcotest.test_case "matching over capacity detected" `Quick
      test_matching_over_capacity_detected;
    Alcotest.test_case "maxsum drift violation" `Quick
      test_maxsum_drift_violation;
    Alcotest.test_case "audit disabled is a no-op" `Quick
      test_audit_disabled_is_noop;
    Alcotest.test_case "healthy solvers pass audit" `Quick
      test_healthy_solvers_pass_audit;
  ]
