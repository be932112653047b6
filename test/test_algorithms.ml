(* Solver behaviour on structured cases: maximality, Lemma 1, exact-search
   agreement, budget anytime behaviour, baseline feasibility, dispatch. *)

open Geacc_core
module Rng = Geacc_util.Rng
module Synthetic = Geacc_datagen.Synthetic

let small_cfg =
  {
    Synthetic.default with
    Synthetic.n_events = 4;
    n_users = 8;
    dim = 2;
    event_capacity = Synthetic.Cap_uniform 3;
    user_capacity = Synthetic.Cap_uniform 2;
  }

let feasible m = Validate.check_matching m = []

(* -- Greedy -- *)

let test_greedy_feasible_and_maximal () =
  for seed = 1 to 20 do
    let t = Synthetic.generate ~seed small_cfg in
    let m = Greedy.solve t in
    Alcotest.(check bool) "feasible" true (feasible m);
    (* Maximality (Lemma 5): no unmatched pair can be added. *)
    for v = 0 to Instance.n_events t - 1 do
      for u = 0 to Instance.n_users t - 1 do
        if not (Matching.mem m ~v ~u) then
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: pair (%d,%d) not addable" seed v u)
            true
            (Matching.check_add m ~v ~u <> None)
      done
    done
  done

let test_greedy_deterministic () =
  let t = Synthetic.generate ~seed:5 small_cfg in
  let m1 = Greedy.solve t and m2 = Greedy.solve t in
  Alcotest.(check bool) "same pairs" true (Matching.pairs m1 = Matching.pairs m2)

let test_greedy_zero_capacity () =
  let sim = Similarity.euclidean ~dim:1 ~range:1. in
  let events = [| Entity.make ~id:0 ~attrs:[| 0.5 |] ~capacity:0 |] in
  let users = [| Entity.make ~id:0 ~attrs:[| 0.5 |] ~capacity:3 |] in
  let t =
    Instance.create ~sim ~events ~users
      ~conflicts:(Conflict.create ~n_events:1) ()
  in
  Alcotest.(check int) "zero-capacity event never matched" 0
    (Matching.size (Greedy.solve t))

let test_greedy_full_conflict_one_event_per_user () =
  let t =
    Synthetic.generate ~seed:2
      { small_cfg with Synthetic.conflict_ratio = 1. }
  in
  let m = Greedy.solve t in
  Alcotest.(check bool) "feasible" true (feasible m);
  for u = 0 to Instance.n_users t - 1 do
    Alcotest.(check bool) "at most one event with CF complete" true
      (List.length (Matching.user_events m u) <= 1)
  done

(* -- MinCostFlow -- *)

let test_mcf_feasible () =
  for seed = 1 to 10 do
    let t = Synthetic.generate ~seed small_cfg in
    Alcotest.(check bool) "feasible" true (feasible (Mincostflow.solve t))
  done

let test_mcf_optimal_without_conflicts () =
  (* Lemma 1: with CF = empty, MinCostFlow-GEACC returns an optimum. *)
  for seed = 1 to 10 do
    let t =
      Synthetic.generate ~seed { small_cfg with Synthetic.conflict_ratio = 0. }
    in
    let mcf = Mincostflow.solve t in
    let opt, stats = Exact.solve t in
    Alcotest.(check bool) "exact search completed" false
      stats.Exact.exhausted_budget;
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "seed %d: MCF = OPT when CF is empty" seed)
      (Matching.maxsum opt) (Matching.maxsum mcf)
  done

let test_mcf_stats () =
  let t = Synthetic.generate ~seed:1 small_cfg in
  let m, stats = Mincostflow.solve_with_stats t in
  Alcotest.(check bool) "flow at least matching size" true
    (stats.Mincostflow.flow_value >= Matching.size m);
  Alcotest.(check int) "dropped = flow pairs - kept pairs"
    (stats.Mincostflow.flow_value - Matching.size m)
    stats.Mincostflow.dropped_pairs;
  Alcotest.(check bool) "augmentations cover flow" true
    (stats.Mincostflow.augmentations >= 1)

let test_mcf_flow_bounded_by_capacity () =
  let t = Synthetic.generate ~seed:3 small_cfg in
  let _, stats = Mincostflow.solve_with_stats t in
  let bound =
    Stdlib.min (Instance.sum_event_capacity t) (Instance.sum_user_capacity t)
  in
  Alcotest.(check bool) "flow within Delta_max" true
    (stats.Mincostflow.flow_value <= bound)

let test_mcf_rejects_similarity_above_one () =
  (* Similarity.custom promises values in [0, 1]; 1.5 would make a
     negative-cost arc no SSP pass can reduce, so the build refuses it. *)
  let sim = Similarity.custom ~name:"too-similar" (fun _ _ -> 1.5) in
  let entity id = Entity.make ~id ~attrs:[| 0. |] ~capacity:1 in
  let t =
    Instance.create ~sim ~events:[| entity 0 |] ~users:[| entity 0 |]
      ~conflicts:(Conflict.create ~n_events:1) ()
  in
  match Mincostflow.solve t with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "names the pair and the value"
        "Mincostflow.build_network: similarity of (v=0, u=0) is 1.5, outside \
         [0, 1]"
        msg

(* -- Exact search -- *)

let test_exact_prune_equals_exhaustive () =
  for seed = 1 to 8 do
    let t = Synthetic.generate ~seed small_cfg in
    let p = Exact.solve_prune t in
    let e = Exact.solve_exhaustive t in
    Alcotest.(check bool) "both feasible" true (feasible p && feasible e);
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "seed %d: prune = exhaustive optimum" seed)
      (Matching.maxsum e) (Matching.maxsum p)
  done

let test_exact_dominates_approximations () =
  for seed = 1 to 8 do
    let t = Synthetic.generate ~seed small_cfg in
    let opt = Matching.maxsum (Exact.solve_prune t) in
    Alcotest.(check bool) "opt >= greedy" true
      (opt +. 1e-9 >= Matching.maxsum (Greedy.solve t));
    Alcotest.(check bool) "opt >= mcf" true
      (opt +. 1e-9 >= Matching.maxsum (Mincostflow.solve t))
  done

let test_exact_budget_anytime () =
  let t = Synthetic.generate ~seed:4 small_cfg in
  let full, full_stats = Exact.solve ~pruning:false ~warm_start:false t in
  let budgeted, stats =
    Exact.solve ~pruning:false ~warm_start:false
      ~budget:(full_stats.Exact.invocations / 10)
      t
  in
  Alcotest.(check bool) "budget flag" true stats.Exact.exhausted_budget;
  Alcotest.(check bool) "budget respected" true
    (stats.Exact.invocations <= (full_stats.Exact.invocations / 10) + 1);
  Alcotest.(check bool) "anytime result feasible" true (feasible budgeted);
  Alcotest.(check bool) "anytime <= optimum" true
    (Matching.maxsum budgeted <= Matching.maxsum full +. 1e-9)

let test_exact_pruning_reduces_work () =
  let t = Synthetic.generate ~seed:6 small_cfg in
  let _, pruned = Exact.solve t in
  let _, exhaustive = Exact.solve ~pruning:false ~warm_start:false t in
  Alcotest.(check bool) "fewer invocations with pruning" true
    (pruned.Exact.invocations < exhaustive.Exact.invocations);
  Alcotest.(check bool) "fewer complete searches with pruning" true
    (pruned.Exact.complete_searches <= exhaustive.Exact.complete_searches);
  Alcotest.(check bool) "prunes recorded" true (pruned.Exact.prunes > 0);
  Alcotest.(check bool) "exhaustive never prunes" true
    (exhaustive.Exact.prunes = 0)

let test_exact_without_warm_start_agrees () =
  let t = Synthetic.generate ~seed:7 small_cfg in
  let a = Exact.solve t in
  let b = Exact.solve ~warm_start:false t in
  Alcotest.(check (float 1e-9)) "same optimum either way"
    (Matching.maxsum (fst a)) (Matching.maxsum (fst b))

let test_exact_empty_instance () =
  let sim = Similarity.euclidean ~dim:1 ~range:1. in
  let users = [| Entity.make ~id:0 ~attrs:[| 0. |] ~capacity:1 |] in
  let t =
    Instance.create ~sim ~events:[||] ~users
      ~conflicts:(Conflict.create ~n_events:0) ()
  in
  let m, stats = Exact.solve t in
  Alcotest.(check int) "no events, empty matching" 0 (Matching.size m);
  Alcotest.(check int) "no recursion" 0 stats.Exact.invocations

(* -- Random baselines -- *)

let test_random_baselines_feasible () =
  for seed = 1 to 10 do
    let t = Synthetic.generate ~seed small_cfg in
    let rng = Rng.create ~seed in
    Alcotest.(check bool) "random-v feasible" true
      (feasible (Random_baseline.random_v ~rng t));
    Alcotest.(check bool) "random-u feasible" true
      (feasible (Random_baseline.random_u ~rng t))
  done

let test_random_deterministic_per_seed () =
  let t = Synthetic.generate ~seed:1 small_cfg in
  let run () = Random_baseline.random_v ~rng:(Rng.create ~seed:9) t in
  Alcotest.(check bool) "same seed, same matching" true
    (Matching.pairs (run ()) = Matching.pairs (run ()));
  let other = Random_baseline.random_v ~rng:(Rng.create ~seed:10) t in
  Alcotest.(check bool) "different seed, (almost surely) different" true
    (Matching.pairs other <> Matching.pairs (run ()))

(* -- Solver dispatch -- *)

let test_solver_names_roundtrip () =
  List.iter
    (fun a ->
      match Solver.of_string (Solver.short_name a) with
      | Ok a' -> Alcotest.(check bool) "roundtrip" true (a = a')
      | Error e -> Alcotest.fail e)
    Solver.all;
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Solver.of_string "nope"));
  Alcotest.(check bool) "case-insensitive" true
    (Solver.of_string "GREEDY" = Ok Solver.Greedy)

let test_solver_run_dispatch () =
  let t = Synthetic.generate ~seed:2 small_cfg in
  List.iter
    (fun a ->
      let m = Solver.run a t in
      Alcotest.(check bool)
        (Printf.sprintf "%s output feasible" (Solver.name a))
        true (feasible m))
    Solver.all;
  Alcotest.(check bool) "exactness flags" true
    (Solver.is_exact Solver.Prune && not (Solver.is_exact Solver.Greedy))

(* -- audit-instrumented runs -- *)

let test_all_solvers_under_audit () =
  (* Every solver once with the audit layer live, so the mcf/greedy/exact
     hook points run against healthy instances (zero violations expected).
     [GEACC_AUDIT=1 dune runtest] additionally flips the gate for every
     other test in the binary. *)
  let t = Synthetic.generate ~seed:11 small_cfg in
  Geacc_check.Audit.with_enabled true (fun () ->
      List.iter
        (fun a ->
          let m = Solver.run a t in
          Alcotest.(check bool)
            (Printf.sprintf "%s feasible under audit" (Solver.name a))
            true (feasible m))
        Solver.all)

let suite =
  [
    Alcotest.test_case "greedy feasible and maximal" `Quick
      test_greedy_feasible_and_maximal;
    Alcotest.test_case "greedy deterministic" `Quick test_greedy_deterministic;
    Alcotest.test_case "greedy zero capacity" `Quick test_greedy_zero_capacity;
    Alcotest.test_case "greedy under complete CF" `Quick
      test_greedy_full_conflict_one_event_per_user;
    Alcotest.test_case "mcf feasible" `Quick test_mcf_feasible;
    Alcotest.test_case "mcf optimal when CF empty (Lemma 1)" `Quick
      test_mcf_optimal_without_conflicts;
    Alcotest.test_case "mcf stats" `Quick test_mcf_stats;
    Alcotest.test_case "mcf rejects similarity above 1" `Quick
      test_mcf_rejects_similarity_above_one;
    Alcotest.test_case "mcf flow within Delta_max" `Quick
      test_mcf_flow_bounded_by_capacity;
    Alcotest.test_case "prune = exhaustive" `Quick
      test_exact_prune_equals_exhaustive;
    Alcotest.test_case "exact dominates approximations" `Quick
      test_exact_dominates_approximations;
    Alcotest.test_case "exact budget anytime" `Quick test_exact_budget_anytime;
    Alcotest.test_case "pruning reduces work" `Quick
      test_exact_pruning_reduces_work;
    Alcotest.test_case "warm start irrelevant to optimum" `Quick
      test_exact_without_warm_start_agrees;
    Alcotest.test_case "exact on empty instance" `Quick
      test_exact_empty_instance;
    Alcotest.test_case "random baselines feasible" `Quick
      test_random_baselines_feasible;
    Alcotest.test_case "random deterministic per seed" `Quick
      test_random_deterministic_per_seed;
    Alcotest.test_case "solver name roundtrip" `Quick
      test_solver_names_roundtrip;
    Alcotest.test_case "solver dispatch" `Quick test_solver_run_dispatch;
    Alcotest.test_case "all solvers under audit" `Quick
      test_all_solvers_under_audit;
  ]
