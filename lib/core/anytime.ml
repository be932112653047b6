module Chain = Geacc_robust.Chain

type report = {
  matching : Matching.t;
  status : Chain.status;
  reason : string option;
  algorithm : Solver.algorithm;
  stages_tried : int;
  fallbacks : int;
  faults : int;
  elapsed_s : float;
  trace : Chain.trace_entry list;
}

let default_chain =
  [ Solver.Exhaustive; Solver.Prune; Solver.Min_cost_flow; Solver.Greedy ]

(* Did the algorithm run to completion under [deadline]? The budget-aware
   solvers report it themselves; the rest never time out. *)
let run_once algorithm instance ~deadline =
  match algorithm with
  | Solver.Exhaustive ->
      let m, stats =
        Exact.solve ~pruning:false ~warm_start:false ~deadline instance
      in
      (m, not stats.Exact.timed_out)
  | Solver.Prune ->
      let m, stats = Exact.solve ~deadline instance in
      (m, not stats.Exact.timed_out)
  | Solver.Min_cost_flow ->
      let m, stats = Mincostflow.solve_with_stats ~deadline instance in
      (m, not stats.Mincostflow.timed_out)
  | Solver.Greedy -> Greedy.solve_anytime ~deadline instance
  | ( Solver.Random_v | Solver.Random_u | Solver.Greedy_naive
    | Solver.Greedy_ls | Solver.Online ) as a ->
      (Solver.run a instance, true)

let stage ?timeout_s algorithm =
  (* One flow augmentation or exact-search visit can dwarf a greedy pop, so
     batch clock reads only where polls are cheap. *)
  let poll_every =
    match algorithm with
    | Solver.Min_cost_flow -> 1
    | Solver.Prune | Solver.Exhaustive | Solver.Greedy | Solver.Random_v
    | Solver.Random_u | Solver.Greedy_naive | Solver.Greedy_ls
    | Solver.Online ->
        64
  in
  Chain.stage ?timeout_s ~poll_every ~name:(Solver.short_name algorithm)
    (fun instance ~budget ->
      let matching, complete =
        run_once algorithm instance ~deadline:budget
      in
      (* The chain only ever hands out matchings that pass the independent
         feasibility check — a degraded checkpoint that fails here is a bug
         and must surface as a stage fault, not as a served answer. *)
      Validate.audit_matching
        ~site:
          (Printf.sprintf "Anytime.%s/%s" (Solver.short_name algorithm)
             (if complete then "complete" else "degraded"))
        matching;
      { Chain.value = matching; complete })

let solve ?timeout_s ?stage_timeout_s ?(algorithms = default_chain) instance =
  let stages = List.map (stage ?timeout_s:stage_timeout_s) algorithms in
  let better incumbent candidate =
    Matching.maxsum candidate > Matching.maxsum incumbent +. 1e-12
  in
  match Chain.run ?timeout_s ~better stages instance with
  | Error _ as e -> e
  | Ok outcome ->
      let algorithm =
        match Solver.of_string outcome.Chain.stage with
        | Ok a -> a
        | Error _ ->
            (* Stage names come from [Solver.short_name] above, so this is
               unreachable; fall back to the chain tail defensively. *)
            Solver.Greedy
      in
      Ok
        {
          matching = outcome.Chain.value;
          status = outcome.Chain.status;
          reason = outcome.Chain.reason;
          algorithm;
          stages_tried = outcome.Chain.stages_tried;
          fallbacks = outcome.Chain.fallbacks;
          faults = outcome.Chain.faults;
          elapsed_s = outcome.Chain.elapsed_s;
          trace = outcome.Chain.trace;
        }
