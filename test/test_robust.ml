(* Robustness layer: budgets, fault injection, structured errors, the
   fallback chain, and the anytime behaviour of the budget-aware solvers.

   Wall-clock deadlines are inherently racy in tests, so every timeout here
   is forced deterministically — either [Budget.create ~expire_after_polls]
   directly or a [timeout.<stage>@N] fault-plan entry. *)

open Geacc_core
module Robust = Geacc_robust
module Budget = Robust.Budget
module Fault = Robust.Fault
module Error = Robust.Error
module Audit = Geacc_check.Audit
module Synthetic = Geacc_datagen.Synthetic

let cfg =
  {
    Synthetic.default with
    Synthetic.n_events = 5;
    n_users = 12;
    dim = 2;
    event_capacity = Synthetic.Cap_uniform 3;
    user_capacity = Synthetic.Cap_uniform 2;
    conflict_ratio = 0.4;
  }

let instance ?(seed = 11) () = Synthetic.generate ~seed cfg

(* Small enough for the unpruned exhaustive search to finish quickly —
   used wherever a chain headed by Exhaustive runs without a deadline. *)
let tiny_cfg =
  { cfg with Synthetic.n_events = 4; n_users = 8 }

let tiny_instance () = Synthetic.generate ~seed:11 tiny_cfg

let feasible m = Validate.check_matching m = []

(* -- Budget ----------------------------------------------------------- *)

let test_budget_unlimited () =
  Alcotest.(check bool) "disarmed" false (Budget.armed Budget.unlimited);
  for _ = 1 to 1000 do
    Alcotest.(check bool) "never expires" false (Budget.check Budget.unlimited)
  done;
  Alcotest.(check bool) "remaining infinite" true
    (Budget.remaining_s Budget.unlimited = infinity)

let test_budget_zero_timeout_expires_immediately () =
  let b = Budget.create ~timeout_s:0. () in
  Alcotest.(check bool) "first poll expires" true (Budget.check b);
  Alcotest.(check bool) "sticky" true (Budget.check b);
  Alcotest.(check bool) "expired flag" true (Budget.expired b);
  Alcotest.(check (float 0.)) "no time remaining" 0. (Budget.remaining_s b)

let test_budget_batches_clock_reads () =
  let b = Budget.create ~poll_every:10 ~timeout_s:3600. () in
  for _ = 1 to 100 do
    ignore (Budget.check b)
  done;
  Alcotest.(check int) "all polls counted" 100 (Budget.polls b);
  (* First poll reads the clock, then one read per 10 polls. *)
  Alcotest.(check bool)
    (Printf.sprintf "few clock reads (%d)" (Budget.clock_reads b))
    true
    (Budget.clock_reads b <= 11)

let test_budget_expire_after_polls () =
  let b = Budget.create ~expire_after_polls:5 ~timeout_s:3600. () in
  for i = 1 to 4 do
    Alcotest.(check bool) (Printf.sprintf "poll %d alive" i) false
      (Budget.check b)
  done;
  Alcotest.(check bool) "poll 5 expires" true (Budget.check b);
  Alcotest.(check bool) "sticky after forced expiry" true (Budget.check b)

let test_budget_forced_expiry_applies_to_check_now () =
  let b = Budget.create ~expire_after_polls:2 ~timeout_s:3600. () in
  Alcotest.(check bool) "first check_now alive" false (Budget.check_now b);
  Alcotest.(check bool) "second check_now expires" true (Budget.check_now b)

let test_budget_expire_propagates () =
  let b = Budget.create ~timeout_s:3600. () in
  Budget.expire b;
  Alcotest.(check bool) "forced" true (Budget.check b);
  (* The shared disarmed budget must be immune. *)
  Budget.expire Budget.unlimited;
  Alcotest.(check bool) "unlimited immune" false (Budget.expired Budget.unlimited)

let test_budget_rejects_bad_params () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "poll_every 0" true
    (invalid (fun () -> Budget.create ~poll_every:0 ~timeout_s:1. ()));
  Alcotest.(check bool) "expire_after_polls 0" true
    (invalid (fun () -> Budget.create ~expire_after_polls:0 ~timeout_s:1. ()))

(* -- Fault ------------------------------------------------------------ *)

let test_fault_plan_parse_errors () =
  let bad s = match Fault.parse s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "uppercase point" true (bad "IO.truncate");
  Alcotest.(check bool) "zero trigger" true (bad "p@0");
  Alcotest.(check bool) "non-numeric trigger" true (bad "p@x");
  Alcotest.(check bool) "missing point" true (bad "@1");
  (* Blank entries (trailing/doubled commas) are tolerated, not errors. *)
  Alcotest.(check bool) "blank entries skipped" true
    (match Fault.parse "a,,b," with Ok _ -> true | Error _ -> false);
  Alcotest.(check bool) "empty plan ok" true
    (match Fault.parse "" with Ok _ -> true | Error _ -> false)

let test_fault_every_hit () =
  Fault.with_plan "x.y" (fun () ->
      Alcotest.(check bool) "hit 1" true (Fault.fire "x.y");
      Alcotest.(check bool) "hit 2" true (Fault.fire "x.y");
      Alcotest.(check bool) "other point silent" false (Fault.fire "x.z");
      Alcotest.(check int) "hits counted" 2 (Fault.hits "x.y");
      Alcotest.(check int) "fires counted" 2 (Fault.fires ()))

let test_fault_nth_hit_only () =
  Fault.with_plan "p@2" (fun () ->
      Alcotest.(check bool) "hit 1 silent" false (Fault.fire "p");
      Alcotest.(check bool) "hit 2 fires" true (Fault.fire "p");
      Alcotest.(check bool) "hit 3 silent" false (Fault.fire "p");
      Alcotest.(check int) "one fire" 1 (Fault.fires ()))

let test_fault_from_nth_hit () =
  Fault.with_plan "p@2+" (fun () ->
      Alcotest.(check bool) "hit 1 silent" false (Fault.fire "p");
      Alcotest.(check bool) "hit 2 fires" true (Fault.fire "p");
      Alcotest.(check bool) "hit 3 fires" true (Fault.fire "p"))

let test_fault_param () =
  Fault.with_plan "timeout.prune@7,timeout.greedy" (fun () ->
      Alcotest.(check (option int)) "parameter read" (Some 7)
        (Fault.param "timeout.prune");
      Alcotest.(check (option int)) "bare entry is 1" (Some 1)
        (Fault.param "timeout.greedy");
      Alcotest.(check (option int)) "absent" None
        (Fault.param "timeout.mincostflow");
      Alcotest.(check int) "param counts no hit" 0 (Fault.hits "timeout.prune"))

let test_fault_inject_raises () =
  Fault.with_plan "boom" (fun () ->
      match Fault.inject "boom" with
      | () -> Alcotest.fail "expected Injected"
      | exception Fault.Injected { point } ->
          Alcotest.(check string) "point carried" "boom" point)

let test_fault_inactive_is_silent () =
  Alcotest.(check bool) "no plan" false (Fault.active ());
  Alcotest.(check bool) "fire without plan" false (Fault.fire "anything");
  Fault.with_plan "x" (fun () ->
      Alcotest.(check bool) "plan active" true (Fault.active ()));
  Alcotest.(check bool) "restored" false (Fault.active ())

let test_fault_bad_plan_rejected () =
  Alcotest.(check bool) "with_plan validates" true
    (try Fault.with_plan "P@" (fun () -> false)
     with Invalid_argument _ -> true)

(* -- Error ------------------------------------------------------------ *)

let test_error_renderings () =
  let check want e = Alcotest.(check string) want want (Error.to_string e) in
  check "parse error at line 3: bad token"
    (Error.Parse_error { line = 3; message = "bad token" });
  check "parse error: unexpected end of input"
    (Error.Parse_error { line = 0; message = "unexpected end of input" });
  check "io error on x.inst: No such file"
    (Error.Io_error { path = "x.inst"; message = "No such file" });
  check "invalid order: user id 9 appears twice"
    (Error.Invalid_input { what = "order"; message = "user id 9 appears twice" });
  check "timeout after 0.500s in stage prune"
    (Error.Timeout { stage = "prune"; elapsed_s = 0.5 });
  check "all 3 stages failed; last (greedy): boom"
    (Error.Exhausted { stages = 3; last = "greedy"; detail = "boom" })

(* -- Anytime solvers under forced deadlines --------------------------- *)

(* A budget that expires after [n] polls; the huge wall-clock timeout keeps
   the clock out of the decision. *)
let forced_budget n = Budget.create ~expire_after_polls:n ~timeout_s:1e9 ()

let test_exact_degraded_is_feasible () =
  Audit.with_enabled true (fun () ->
      List.iter
        (fun (label, pruning) ->
          let t = instance () in
          let deadline = forced_budget 3 in
          let m, stats =
            Exact.solve ~pruning ~warm_start:false ~deadline t
          in
          Alcotest.(check bool) (label ^ " timed out") true stats.Exact.timed_out;
          Alcotest.(check bool) (label ^ " budget exhausted counts") true
            stats.Exact.exhausted_budget;
          Alcotest.(check bool) (label ^ " degraded feasible") true (feasible m))
        [ ("prune", true); ("exhaustive", false) ])

let test_exact_degraded_never_worse_than_warm_start () =
  (* With warm start on, the incumbent begins at Greedy's matching; a
     deadline firing right after the warm start still returns at least it.
     The warm start shares the deadline's polls, so first measure how many
     polls a full greedy run costs and expire just after that. *)
  let t = instance () in
  let probe = Budget.create ~timeout_s:1e9 () in
  let greedy_m, complete = Greedy.solve_anytime ~deadline:probe t in
  Alcotest.(check bool) "probe run completes" true complete;
  let m =
    Exact.solve_prune
      ~deadline:(forced_budget (Budget.polls probe + 2))
      t
  in
  Alcotest.(check bool) "degraded >= greedy" true
    (Matching.maxsum m >= Matching.maxsum greedy_m -. 1e-9)

let test_greedy_anytime_prefix_feasible () =
  Audit.with_enabled true (fun () ->
      let t = instance () in
      let m, complete = Greedy.solve_anytime ~deadline:(forced_budget 2) t in
      Alcotest.(check bool) "stopped early" false complete;
      Alcotest.(check bool) "prefix feasible" true (feasible m);
      let full = Greedy.solve t in
      Alcotest.(check bool) "prefix no larger than full run" true
        (Matching.size m <= Matching.size full))

let test_mincostflow_partial_flow_feasible () =
  Audit.with_enabled true (fun () ->
      let t = instance () in
      let m, stats =
        Mincostflow.solve_with_stats ~deadline:(forced_budget 2) t
      in
      Alcotest.(check bool) "timed out" true stats.Mincostflow.timed_out;
      Alcotest.(check bool) "partial flow resolves feasibly" true (feasible m))

let test_solver_run_threads_deadline () =
  List.iter
    (fun a ->
      let m = Solver.run ~deadline:(forced_budget 2) a (instance ()) in
      Alcotest.(check bool)
        (Solver.short_name a ^ " feasible under deadline")
        true (feasible m))
    [ Solver.Greedy; Solver.Min_cost_flow; Solver.Prune; Solver.Exhaustive ]

(* -- Anytime fallback chain over real solvers ------------------------- *)

let anytime_ok = function
  | Ok (r : Anytime.report) -> r
  | Error e -> Alcotest.failf "anytime failed: %s" (Error.to_string e)

(* The trace holds one row per stage tried, in order; the CLI prints
   [stages_tried - 1] as the fallbacks taken. *)
let check_trace label (r : Anytime.report) expected =
  let row stage verdict =
    Format.asprintf "%s %a" (Solver.short_name stage) Anytime.pp_verdict verdict
  in
  Alcotest.(check int) (label ^ ": one trace row per stage tried")
    r.Anytime.stages_tried (List.length r.Anytime.trace);
  Alcotest.(check (list string)) (label ^ ": trace")
    (List.map (fun (a, v) -> row a v) expected)
    (List.map
       (fun (t : Anytime.trace_entry) -> row t.Anytime.t_stage t.Anytime.t_verdict)
       r.Anytime.trace)

(* The chain's stage-by-stage rules, each on a short explicit stage list. *)

let test_chain_head_completes () =
  (* A head that completes ends the chain: Prune, which would match at
     least as well, never runs. *)
  let t = instance () in
  let r =
    anytime_ok (Anytime.solve ~algorithms:[ Solver.Greedy; Solver.Prune ] t)
  in
  Alcotest.(check bool) "complete" true (r.Anytime.status = Anytime.Complete);
  Alcotest.(check bool) "head stage" true (r.Anytime.algorithm = Solver.Greedy);
  Alcotest.(check (list (pair int int))) "head's matching"
    (Matching.pairs (Greedy.solve t)) (Matching.pairs r.Anytime.matching);
  Alcotest.(check int) "one stage tried" 1 r.Anytime.stages_tried;
  Alcotest.(check int) "no faults" 0 r.Anytime.faults;
  Alcotest.(check (option string)) "no reason" None r.Anytime.reason;
  check_trace "head completes" r [ (Solver.Greedy, Anytime.Completed) ]

let test_chain_falls_back_on_timeout () =
  (* Prune's budget expires just after its greedy warm start, so its
     incumbent is at least Greedy's. The chain falls back to Random-U,
     whose complete but worse matching leaves the incumbent in place; the
     run is degraded because the head did not complete. *)
  let t = instance () in
  let probe = Budget.create ~timeout_s:1e9 () in
  let greedy, _ = Greedy.solve_anytime ~deadline:probe t in
  let polls = Budget.polls probe + 2 in
  let incumbent = Solver.run ~deadline:(forced_budget polls) Solver.Prune t in
  Alcotest.(check bool) "random-u is worse here" true
    (Matching.maxsum (Solver.run Solver.Random_u t)
    < Matching.maxsum greedy -. 1e-9);
  Fault.with_plan (Printf.sprintf "timeout.prune@%d" polls) (fun () ->
      let r =
        anytime_ok
          (Anytime.solve ~algorithms:[ Solver.Prune; Solver.Random_u ] t)
      in
      Alcotest.(check bool) "incumbent kept" true
        (r.Anytime.algorithm = Solver.Prune);
      Alcotest.(check (list (pair int int))) "prune's pairs"
        (Matching.pairs incumbent) (Matching.pairs r.Anytime.matching);
      Alcotest.(check bool) "degraded" true (r.Anytime.status = Anytime.Degraded);
      Alcotest.(check int) "fallback taken" 2 r.Anytime.stages_tried;
      Alcotest.(check (option string)) "reason names the timeout"
        (Some "stage prune timed out") r.Anytime.reason;
      check_trace "falls back" r
        [ (Solver.Prune, Anytime.Timed_out); (Solver.Random_u, Anytime.Completed) ])

let test_chain_fault_falls_through () =
  (* A fault mid-chain falls through to the next stage and keeps the
     incumbent a timed-out head left; Greedy's complete run then beats
     Prune's two-poll checkpoint. *)
  let t = instance () in
  let checkpoint = Solver.run ~deadline:(forced_budget 2) Solver.Prune t in
  let greedy = Greedy.solve t in
  Alcotest.(check bool) "the checkpoint is worse here" true
    (Matching.maxsum checkpoint < Matching.maxsum greedy -. 1e-9);
  Fault.with_plan "timeout.prune@2,mcf.alloc" (fun () ->
      let r =
        anytime_ok
          (Anytime.solve
             ~algorithms:[ Solver.Prune; Solver.Min_cost_flow; Solver.Greedy ]
             t)
      in
      Alcotest.(check bool) "tail stage" true (r.Anytime.algorithm = Solver.Greedy);
      Alcotest.(check (list (pair int int))) "tail's matching"
        (Matching.pairs greedy) (Matching.pairs r.Anytime.matching);
      Alcotest.(check int) "fault counted" 1 r.Anytime.faults;
      Alcotest.(check bool) "degraded" true (r.Anytime.status = Anytime.Degraded);
      Alcotest.(check (option string)) "reason names the first shortfall"
        (Some "stage prune timed out") r.Anytime.reason;
      check_trace "fault falls through" r
        [
          (Solver.Prune, Anytime.Timed_out);
          (Solver.Min_cost_flow, Anytime.Faulted "Fault.Injected at point mcf.alloc");
          (Solver.Greedy, Anytime.Completed);
        ])

let test_chain_exhausted () =
  Fault.with_plan "mcf.alloc" (fun () ->
      match
        Anytime.solve
          ~algorithms:[ Solver.Min_cost_flow; Solver.Min_cost_flow ]
          (instance ())
      with
      | Error (Error.Exhausted { stages; last; detail }) ->
          Alcotest.(check int) "both tried" 2 stages;
          Alcotest.(check string) "last stage named" "mincostflow" last;
          Alcotest.(check string) "last fault"
            "Fault.Injected at point mcf.alloc" detail
      | Ok _ -> Alcotest.fail "expected Exhausted"
      | Error e -> Alcotest.failf "unexpected error %s" (Error.to_string e))

let test_chain_stage_budget_forced_by_plan () =
  (* A [timeout.<stage>@N] plan entry arms the stage budget even when no
     wall-clock timeout is set; the stage sees it expire on poll N. *)
  Fault.with_plan "timeout.probe@3" (fun () ->
      let budget = Budget.for_stage "probe" in
      Alcotest.(check bool) "armed by the plan" true (Budget.armed budget);
      let n = ref 0 in
      while not (Budget.check budget) do
        incr n
      done;
      Alcotest.(check int) "expired on forced poll" 2 !n);
  Alcotest.(check bool) "unarmed without the plan" false
    (Budget.armed (Budget.for_stage "probe"));
  (* Through the chain, untimed: Greedy stops where a budget expiring on
     poll 3 stops it. *)
  let t = instance () in
  let prefix, complete = Greedy.solve_anytime ~deadline:(forced_budget 3) t in
  Alcotest.(check bool) "the prefix is partial" false complete;
  Fault.with_plan "timeout.greedy@3" (fun () ->
      let r = anytime_ok (Anytime.solve ~algorithms:[ Solver.Greedy ] t) in
      Alcotest.(check bool) "degraded" true (r.Anytime.status = Anytime.Degraded);
      Alcotest.(check (list (pair int int))) "stopped on poll 3"
        (Matching.pairs prefix) (Matching.pairs r.Anytime.matching);
      check_trace "plan-forced" r [ (Solver.Greedy, Anytime.Timed_out) ])

let test_anytime_complete_without_budget () =
  let r = anytime_ok (Anytime.solve (tiny_instance ())) in
  Alcotest.(check bool) "complete" true (r.Anytime.status = Anytime.Complete);
  Alcotest.(check bool) "head algorithm" true
    (r.Anytime.algorithm = Solver.Exhaustive);
  Alcotest.(check int) "single stage" 1 r.Anytime.stages_tried;
  check_trace "head completes" r [ (Solver.Exhaustive, Anytime.Completed) ];
  Alcotest.(check (option string)) "no reason" None r.Anytime.reason;
  Alcotest.(check bool) "optimal = prune" true
    (Float.abs
       (Matching.maxsum r.Anytime.matching
       -. Matching.maxsum (Exact.solve_prune (tiny_instance ())))
    <= 1e-9)

let test_anytime_degrades_through_chain () =
  (* Force both exact stages to expire almost immediately; the chain must
     fall through and still return a feasible, audited matching. *)
  Audit.with_enabled true (fun () ->
      Fault.with_plan "timeout.exhaustive@2,timeout.prune@2" (fun () ->
          let r = anytime_ok (Anytime.solve (instance ())) in
          Alcotest.(check bool) "degraded" true
            (r.Anytime.status = Anytime.Degraded);
          Alcotest.(check (option string)) "reason names the first timeout"
            (Some "stage exhaustive timed out") r.Anytime.reason;
          check_trace "fell through" r
            [
              (Solver.Exhaustive, Anytime.Timed_out);
              (Solver.Prune, Anytime.Timed_out);
              (Solver.Min_cost_flow, Anytime.Completed);
            ];
          Alcotest.(check bool) "feasible" true (feasible r.Anytime.matching)))

let test_anytime_better_replaces () =
  (* Exhaustive has no warm start, so after two polls its incumbent is
     nearly empty: Greedy's complete run replaces it. *)
  Fault.with_plan "timeout.exhaustive@2" (fun () ->
      let r =
        anytime_ok
          (Anytime.solve ~algorithms:[ Solver.Exhaustive; Solver.Greedy ]
             (instance ()))
      in
      Alcotest.(check bool) "served by greedy" true
        (r.Anytime.algorithm = Solver.Greedy);
      Alcotest.(check (float 0.)) "greedy's matching"
        (Matching.maxsum (Greedy.solve (instance ())))
        (Matching.maxsum r.Anytime.matching);
      Alcotest.(check bool) "degraded (head timed out)" true
        (r.Anytime.status = Anytime.Degraded);
      check_trace "better replaces" r
        [ (Solver.Exhaustive, Anytime.Timed_out); (Solver.Greedy, Anytime.Completed) ]);
  (* A later candidate that is not better leaves the incumbent. Greedy's
     budget expires on the poll that would have ended its run, so it times
     out holding its full matching; Random-U then completes lower. *)
  let t = instance () in
  let probe = Budget.create ~timeout_s:1e9 () in
  let greedy, _ = Greedy.solve_anytime ~deadline:probe t in
  Alcotest.(check bool) "random-u is worse here" true
    (Matching.maxsum (Solver.run Solver.Random_u t) < Matching.maxsum greedy);
  Fault.with_plan (Printf.sprintf "timeout.greedy@%d" (Budget.polls probe)) (fun () ->
      let r =
        anytime_ok
          (Anytime.solve ~algorithms:[ Solver.Greedy; Solver.Random_u ] t)
      in
      Alcotest.(check bool) "incumbent kept" true
        (r.Anytime.algorithm = Solver.Greedy);
      Alcotest.(check (list (pair int int))) "greedy's pairs"
        (Matching.pairs greedy) (Matching.pairs r.Anytime.matching);
      check_trace "incumbent kept" r
        [ (Solver.Greedy, Anytime.Timed_out); (Solver.Random_u, Anytime.Completed) ])

let test_anytime_every_stage_deadline () =
  (* Each budget-aware stage alone, under a forced stage deadline: the
     degraded checkpoint must pass the audited feasibility gate (the stage
     would Fault otherwise, and the chain would return an error). *)
  Audit.with_enabled true (fun () ->
      List.iter
        (fun a ->
          let name = Solver.short_name a in
          Fault.with_plan (Printf.sprintf "timeout.%s@2" name) (fun () ->
              let r = anytime_ok (Anytime.solve ~algorithms:[ a ] (instance ())) in
              Alcotest.(check bool) (name ^ " degraded") true
                (r.Anytime.status = Anytime.Degraded);
              check_trace name r [ (a, Anytime.Timed_out) ];
              Alcotest.(check bool) (name ^ " feasible") true
                (feasible r.Anytime.matching)))
        [
          Solver.Exhaustive; Solver.Prune; Solver.Min_cost_flow; Solver.Greedy;
          Solver.Greedy_ls; Solver.Online;
        ])

let test_anytime_seeded_stages () =
  (* Every stage draws from a fresh generator seeded with [seed], as an
     unbudgeted [Solver.run] does. The two seeds give different matchings
     here, so a stage that ignored [seed] would fail one of them. *)
  let pairs_with seed =
    let r =
      anytime_ok
        (Anytime.solve ~timeout_s:100. ~seed ~algorithms:[ Solver.Random_v ]
           (instance ()))
    in
    let direct =
      Solver.run ~rng:(Geacc_util.Rng.create ~seed) Solver.Random_v (instance ())
    in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "seed %d" seed)
      (Matching.pairs direct) (Matching.pairs r.Anytime.matching);
    Matching.pairs direct
  in
  Alcotest.(check bool) "the seeds differ" false (pairs_with 3 = pairs_with 42)

let test_anytime_exhausted_on_persistent_fault () =
  Fault.with_plan "mcf.alloc" (fun () ->
      match
        Anytime.solve ~algorithms:[ Solver.Min_cost_flow ] (instance ())
      with
      | Error (Error.Exhausted { last; _ }) ->
          Alcotest.(check string) "last stage" "mincostflow" last
      | Ok _ -> Alcotest.fail "expected Exhausted"
      | Error e -> Alcotest.failf "unexpected error %s" (Error.to_string e))

let test_anytime_fault_then_fallback () =
  (* Flow fault, greedy tail: the chain must abandon the faulted flow
     stage and serve greedy's complete answer. *)
  Fault.with_plan "mcf.alloc@1" (fun () ->
      let r =
        anytime_ok
          (Anytime.solve
             ~algorithms:[ Solver.Min_cost_flow; Solver.Greedy ] (instance ()))
      in
      Alcotest.(check bool) "served by greedy" true
        (r.Anytime.algorithm = Solver.Greedy);
      Alcotest.(check int) "the flow stage ran once and faulted" 1
        r.Anytime.faults;
      Alcotest.(check bool) "degraded (head faulted)" true
        (r.Anytime.status = Anytime.Degraded);
      Alcotest.(check (option string)) "reason names the fault"
        (Some "stage mincostflow faulted: Fault.Injected at point mcf.alloc")
        r.Anytime.reason;
      Alcotest.(check int) "two stages tried" 2 r.Anytime.stages_tried;
      Alcotest.(check bool) "feasible" true (feasible r.Anytime.matching))

let test_anytime_empty_is_invalid () =
  match Anytime.solve ~algorithms:[] (instance ()) with
  | Error (Error.Invalid_input { what; _ }) ->
      Alcotest.(check string) "names the chain" "chain" what
  | Ok _ | Error _ -> Alcotest.fail "expected Invalid_input"

let test_anytime_overall_timeout_without_candidate () =
  (* The overall deadline has passed before the head stage starts, so no
     stage runs and there is nothing to serve. *)
  match Anytime.solve ~timeout_s:0. (instance ()) with
  | Error (Error.Timeout _) -> ()
  | Ok _ -> Alcotest.fail "expected Timeout"
  | Error e -> Alcotest.failf "unexpected error %s" (Error.to_string e)

(* -- Injected data faults --------------------------------------------- *)

let test_sim_fault_injection () =
  let t = instance () in
  Fault.with_plan "sim.nan@1" (fun () ->
      Alcotest.(check bool) "first sim read is NaN" true
        (Float.is_nan (Instance.sim t ~v:0 ~u:0));
      Alcotest.(check bool) "second sim read is clean" true
        (Float.is_finite (Instance.sim t ~v:0 ~u:0)));
  Fault.with_plan "sim.huge@1" (fun () ->
      Alcotest.(check bool) "oversized similarity" true
        (Instance.sim t ~v:0 ~u:0 >= 1e300))

let test_io_fault_injection () =
  let t = instance () in
  let path = Filename.temp_file "geacc_robust" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Geacc_io.Instance_io.write_instance ~path t;
      List.iter
        (fun plan ->
          Fault.with_plan plan (fun () ->
              match Geacc_io.Instance_io.read_instance_result ~path with
              | Error (Error.Parse_error _) -> ()
              | Error e ->
                  Alcotest.failf "%s: unexpected error %s" plan
                    (Error.to_string e)
              | Ok _ -> Alcotest.failf "%s: corrupt file accepted" plan))
        [ "io.truncate"; "io.corrupt" ];
      (* Without a plan the same file loads cleanly. *)
      match Geacc_io.Instance_io.read_instance_result ~path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "clean read failed: %s" (Error.to_string e))

let suite =
  [
    Alcotest.test_case "budget: unlimited" `Quick test_budget_unlimited;
    Alcotest.test_case "budget: zero timeout" `Quick
      test_budget_zero_timeout_expires_immediately;
    Alcotest.test_case "budget: batched clock reads" `Quick
      test_budget_batches_clock_reads;
    Alcotest.test_case "budget: forced poll expiry" `Quick
      test_budget_expire_after_polls;
    Alcotest.test_case "budget: forced expiry in check_now" `Quick
      test_budget_forced_expiry_applies_to_check_now;
    Alcotest.test_case "budget: external expire" `Quick
      test_budget_expire_propagates;
    Alcotest.test_case "budget: parameter validation" `Quick
      test_budget_rejects_bad_params;
    Alcotest.test_case "fault: plan parse errors" `Quick
      test_fault_plan_parse_errors;
    Alcotest.test_case "fault: every hit" `Quick test_fault_every_hit;
    Alcotest.test_case "fault: nth hit only" `Quick test_fault_nth_hit_only;
    Alcotest.test_case "fault: from nth hit" `Quick test_fault_from_nth_hit;
    Alcotest.test_case "fault: parameter entries" `Quick test_fault_param;
    Alcotest.test_case "fault: inject raises" `Quick test_fault_inject_raises;
    Alcotest.test_case "fault: inactive is free" `Quick
      test_fault_inactive_is_silent;
    Alcotest.test_case "fault: bad plan rejected" `Quick
      test_fault_bad_plan_rejected;
    Alcotest.test_case "error: stable renderings" `Quick test_error_renderings;
    Alcotest.test_case "chain: head completes" `Quick test_chain_head_completes;
    Alcotest.test_case "chain: timeout falls back" `Quick
      test_chain_falls_back_on_timeout;
    Alcotest.test_case "chain: fault falls through" `Quick
      test_chain_fault_falls_through;
    Alcotest.test_case "chain: exhausted" `Quick test_chain_exhausted;
    Alcotest.test_case "chain: plan-forced stage budget" `Quick
      test_chain_stage_budget_forced_by_plan;
    Alcotest.test_case "exact: degraded feasible" `Quick
      test_exact_degraded_is_feasible;
    Alcotest.test_case "exact: degraded >= warm start" `Quick
      test_exact_degraded_never_worse_than_warm_start;
    Alcotest.test_case "greedy: anytime prefix" `Quick
      test_greedy_anytime_prefix_feasible;
    Alcotest.test_case "mincostflow: partial flow" `Quick
      test_mincostflow_partial_flow_feasible;
    Alcotest.test_case "solver: run threads deadline" `Quick
      test_solver_run_threads_deadline;
    Alcotest.test_case "anytime: complete" `Quick
      test_anytime_complete_without_budget;
    Alcotest.test_case "anytime: degrades through chain" `Quick
      test_anytime_degrades_through_chain;
    Alcotest.test_case "anytime: better replaces" `Quick
      test_anytime_better_replaces;
    Alcotest.test_case "anytime: every stage deadline" `Quick
      test_anytime_every_stage_deadline;
    Alcotest.test_case "anytime: seeded stages" `Quick
      test_anytime_seeded_stages;
    Alcotest.test_case "anytime: exhausted" `Quick
      test_anytime_exhausted_on_persistent_fault;
    Alcotest.test_case "anytime: fault then fallback" `Quick
      test_anytime_fault_then_fallback;
    Alcotest.test_case "anytime: empty invalid" `Quick
      test_anytime_empty_is_invalid;
    Alcotest.test_case "anytime: overall timeout" `Quick
      test_anytime_overall_timeout_without_candidate;
    Alcotest.test_case "faults: sim injection" `Quick test_sim_fault_injection;
    Alcotest.test_case "faults: io injection" `Quick test_io_fault_injection;
  ]
