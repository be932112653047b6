module Budget = Geacc_robust.Budget
module Error = Geacc_robust.Error

type status = Complete | Degraded

type verdict = Completed | Timed_out | Faulted of string

type trace_entry = {
  t_stage : Solver.algorithm;
  t_seconds : float;
  t_verdict : verdict;
}

type report = {
  matching : Matching.t;
  status : status;
  reason : string option;
  algorithm : Solver.algorithm;
  stages_tried : int;
  faults : int;
  elapsed_s : float;
  trace : trace_entry list;
}

let default_chain =
  [ Solver.Exhaustive; Solver.Prune; Solver.Min_cost_flow; Solver.Greedy ]

let pp_verdict ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Timed_out -> Format.pp_print_string ppf "timed out"
  | Faulted e -> Format.fprintf ppf "faulted: %s" e

(* The budget a stage runs under: capped by the stage timeout and by the
   overall time remaining, and forced to expire on poll N when the fault
   plan carries [timeout.<stage>@N]. *)
let stage_budget ?stage_timeout_s ~overall algorithm =
  let timeout_s =
    match (stage_timeout_s, Budget.armed overall) with
    | None, false -> None
    | Some s, false -> Some s
    | None, true -> Some (Budget.remaining_s overall)
    | Some s, true -> Some (Float.min s (Budget.remaining_s overall))
  in
  Budget.for_stage ?timeout_s (Solver.short_name algorithm)

(* One stage: its matching and whether it ran to completion, which is
   whether its deadline is still unexpired (see [Solver.run]). The chain
   only ever hands out matchings that pass the independent feasibility
   check: a checkpoint that fails it is a bug, and surfaces as a stage
   fault. *)
let run_stage ~seed ~deadline algorithm instance =
  let matching =
    Solver.run ~rng:(Geacc_util.Rng.create ~seed) ~deadline algorithm instance
  in
  let complete = not (Budget.expired deadline) in
  Validate.audit_matching
    ~site:
      (Printf.sprintf "Anytime.%s/%s" (Solver.short_name algorithm)
         (if complete then "complete" else "degraded"))
    matching;
  (matching, complete)

(* Why a stage did not complete, or [None] when it did. *)
let shortfall t =
  let stage = Solver.short_name t.t_stage in
  match t.t_verdict with
  | Completed -> None
  | Timed_out -> Some (Printf.sprintf "stage %s timed out" stage)
  | Faulted e -> Some (Printf.sprintf "stage %s faulted: %s" stage e)

let is_fault t =
  match t.t_verdict with Faulted _ -> true | Completed | Timed_out -> false

let solve ?timeout_s ?stage_timeout_s ?(seed = 42) ?(algorithms = default_chain)
    instance =
  let start = Budget.now_s () in
  let overall =
    match timeout_s with
    | None -> Budget.unlimited
    | Some s -> Budget.create ~poll_every:1 ~timeout_s:s ()
  in
  (* Runs the stages in order until one completes, the list ends or the
     overall deadline expires. [best] is the incumbent matching and the
     stage that produced it; [trace] is newest first. *)
  let rec run best trace = function
    | [] -> (best, trace)
    | _ :: _ when Budget.check_now overall -> (best, trace)
    | algorithm :: rest -> (
        let deadline = stage_budget ?stage_timeout_s ~overall algorithm in
        let t0 = Budget.now_s () in
        let entry t_verdict =
          { t_stage = algorithm; t_seconds = Budget.now_s () -. t0; t_verdict }
        in
        match run_stage ~seed ~deadline algorithm instance with
        | exception e ->
            run best (entry (Faulted (Printexc.to_string e)) :: trace) rest
        | matching, complete ->
            let trace = entry (if complete then Completed else Timed_out) :: trace in
            let better =
              match best with
              | None -> true
              | Some (incumbent, _) ->
                  Matching.maxsum matching > Matching.maxsum incumbent +. 1e-12
            in
            let best = if better then Some (matching, algorithm) else best in
            if complete then (best, trace) else run best trace rest)
  in
  match algorithms with
  | [] -> Error (Error.Invalid_input { what = "chain"; message = "no stages" })
  | _ :: _ -> (
      let best, newest_first = run None [] algorithms in
      let elapsed_s = Budget.now_s () -. start in
      let trace = List.rev newest_first in
      let stages_tried = List.length trace in
      match best with
      | Some (matching, algorithm) ->
          (* The chain stops at the first complete stage, so no stage fell
             short exactly when the head completed. *)
          let reason = List.find_map shortfall trace in
          Ok
            {
              matching;
              status = (if Option.is_none reason then Complete else Degraded);
              reason;
              algorithm;
              stages_tried;
              faults = List.length (List.filter is_fault trace);
              elapsed_s;
              trace;
            }
      | None ->
          (* No candidate: every stage that ran raised. *)
          let last, detail =
            match newest_first with
            | { t_stage; t_verdict = Faulted e; _ } :: _ ->
                (Solver.short_name t_stage, e)
            | _ -> ("", "no stages")
          in
          if Budget.expired overall then
            Error (Error.Timeout { stage = last; elapsed_s })
          else Error (Error.Exhausted { stages = stages_tried; last; detail }))
