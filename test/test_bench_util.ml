(* Measurement utilities and the experiment harness. *)

open Geacc_util
module Synthetic = Geacc_datagen.Synthetic
module Harness = Geacc_bench.Harness
module Solver = Geacc_core.Solver

let test_time () =
  let x, elapsed = Measure.time (fun () -> Array.init 100_000 Fun.id) in
  Alcotest.(check int) "result returned" 100_000 (Array.length x);
  Alcotest.(check bool) "non-negative duration" true (elapsed >= 0.)

let test_run_reports_retained () =
  let x, sample = Measure.run (fun () -> Array.make 500_000 0.) in
  Alcotest.(check int) "result returned" 500_000 (Array.length x);
  (* 500k floats = ~4MB retained. *)
  Alcotest.(check bool) "retained growth visible" true
    (sample.Measure.live_bytes > 3_000_000);
  Alcotest.(check bool) "time recorded" true (sample.Measure.wall_s >= 0.)

let test_run_with_peak_sees_retained () =
  let x, peak, `Exact =
    Measure.run_with_peak (fun () -> Array.make 500_000 0.)
  in
  Alcotest.(check int) "result returned" 500_000 (Array.length x);
  Alcotest.(check bool) "peak covers the retained array" true
    (peak > 3_000_000)

let test_run_with_peak_propagates_exceptions () =
  Alcotest.check_raises "exception passes through" Exit (fun () ->
      ignore (Measure.run_with_peak (fun () -> raise Exit)))

let tiny_cfg =
  {
    Synthetic.default with
    Synthetic.n_events = 3;
    n_users = 6;
    dim = 2;
    event_capacity = Synthetic.Cap_uniform 2;
    user_capacity = Synthetic.Cap_uniform 2;
  }

let test_harness_measure () =
  let m =
    Harness.measure Solver.Greedy (Synthetic.generate ~seed:1 tiny_cfg)
  in
  Alcotest.(check bool) "pairs matched" true (m.Harness.matched_pairs > 0);
  Alcotest.(check bool) "maxsum positive" true (m.Harness.maxsum > 0.);
  Alcotest.(check bool) "time non-negative" true (m.Harness.wall_s >= 0.)

(* Greedy opens every event's ranked list: 16 bytes per user (a float key
   and an int id). A measured solve pays for those lists even when an
   earlier solve already opened them on the instance it is handed. *)
let test_harness_measure_cold_lists () =
  let n_v = 20 and n_u = 500 in
  let inst =
    Synthetic.generate ~seed:1
      { Synthetic.default with Synthetic.n_events = n_v; n_users = n_u }
  in
  ignore (Geacc_core.Greedy.solve inst);
  Alcotest.(check int) "the earlier solve opened every event list" n_v
    (fst (Geacc_core.Instance.neighbor_work inst));
  let m = Harness.measure Solver.Greedy inst in
  let lists = 16 * n_v * n_u in
  Alcotest.(check bool)
    (Printf.sprintf "peak %d B covers half the %d B of event lists"
       m.Harness.live_bytes lists)
    true
    (2 * m.Harness.live_bytes >= lists)

let test_harness_average_deterministic_algorithms () =
  let make ~seed = Synthetic.generate ~seed tiny_cfg in
  let aggregates =
    Harness.average ~trials:3 ~make_instance:make
      [ Solver.Greedy; Solver.Prune ]
  in
  match aggregates with
  | [ greedy; prune ] ->
      Alcotest.(check int) "trials recorded" 3 greedy.Harness.trials;
      Alcotest.(check bool) "prune >= greedy on average" true
        (prune.Harness.mean_maxsum +. 1e-9 >= greedy.Harness.mean_maxsum)
  | _ -> Alcotest.fail "two aggregates expected"

let test_metric_projection () =
  let agg =
    {
      Harness.algorithm = Solver.Greedy;
      trials = 1;
      mean_maxsum = 2.5;
      mean_wall_s = 0.25;
      mean_live_bytes = 2. *. 1024. *. 1024.;
    }
  in
  Alcotest.(check (float 1e-9)) "maxsum" 2.5 (Harness.metric `Maxsum agg);
  Alcotest.(check (float 1e-9)) "ms" 250. (Harness.metric `Time_ms agg);
  Alcotest.(check (float 1e-9)) "mb" 2. (Harness.metric `Memory_mb agg);
  Alcotest.(check string) "label" "MaxSum" (Harness.metric_label `Maxsum)

let suite =
  [
    Alcotest.test_case "time" `Quick test_time;
    Alcotest.test_case "run reports retained memory" `Quick
      test_run_reports_retained;
    Alcotest.test_case "peak covers retained" `Quick
      test_run_with_peak_sees_retained;
    Alcotest.test_case "peak propagates exceptions" `Quick
      test_run_with_peak_propagates_exceptions;
    Alcotest.test_case "harness measure" `Quick test_harness_measure;
    Alcotest.test_case "harness measure opens cold lists" `Quick
      test_harness_measure_cold_lists;
    Alcotest.test_case "harness average" `Quick
      test_harness_average_deterministic_algorithms;
    Alcotest.test_case "metric projection" `Quick test_metric_projection;
  ]
