type status = Complete | Degraded

type 'r attempt = { value : 'r; complete : bool }

type ('a, 'r) stage = {
  name : string;
  timeout_s : float option;
  poll_every : int;
  run : 'a -> budget:Budget.t -> 'r attempt;
}

let stage ?timeout_s ?(poll_every = 64) ~name run =
  { name; timeout_s; poll_every; run }

let stage_name s = s.name

type verdict = Completed | Timed_out | Faulted of string

type trace_entry = {
  t_stage : string;
  t_seconds : float;
  t_verdict : verdict;
}

type 'r outcome = {
  value : 'r;
  status : status;
  reason : string option;
  stage : string;
  stages_tried : int;
  fallbacks : int;
  faults : int;
  elapsed_s : float;
  trace : trace_entry list;
}

let pp_verdict ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Timed_out -> Format.pp_print_string ppf "timed out"
  | Faulted e -> Format.fprintf ppf "faulted: %s" e

(* The budget a stage runs under: capped by the stage's own timeout and by
   the overall time remaining, and forced to expire on poll N when the
   fault plan carries [timeout.<stage>@N]. *)
let stage_budget stage ~overall =
  let timeout_s =
    match (stage.timeout_s, Budget.armed overall) with
    | None, false -> None
    | Some s, false -> Some s
    | None, true -> Some (Budget.remaining_s overall)
    | Some s, true -> Some (Float.min s (Budget.remaining_s overall))
  in
  Budget.for_stage ~poll_every:stage.poll_every ?timeout_s stage.name

let run ?timeout_s ?(better = fun _ _ -> false) stages input =
  let start = Budget.now_s () in
  let overall =
    match timeout_s with
    | None -> Budget.unlimited
    | Some s -> Budget.create ~poll_every:1 ~timeout_s:s ()
  in
  let trace = ref [] in
  let stages_tried = ref 0 in
  let fallbacks = ref 0 in
  let faults = ref 0 in
  (* Best value so far: (value, producing stage, its index, complete). *)
  let candidate = ref None in
  let last_stage = ref "" in
  let last_detail = ref "no stages" in
  let record stage t0 verdict =
    trace :=
      {
        t_stage = stage.name;
        t_seconds = Budget.now_s () -. t0;
        t_verdict = verdict;
      }
      :: !trace
  in
  let offer value stage index complete =
    match !candidate with
    | None -> candidate := Some (value, stage.name, index, complete)
    | Some (incumbent, _, _, _) ->
        if better incumbent value then
          candidate := Some (value, stage.name, index, complete)
  in
  let rec try_stage index = function
    | [] -> ()
    | stage :: rest ->
        if Budget.check_now overall then ()
        else begin
          incr stages_tried;
          last_stage := stage.name;
          let budget = stage_budget stage ~overall in
          let t0 = Budget.now_s () in
          let complete =
            match stage.run input ~budget with
            | { value; complete } ->
                record stage t0 (if complete then Completed else Timed_out);
                offer value stage index complete;
                complete
            | exception e ->
                let printed = Printexc.to_string e in
                record stage t0 (Faulted printed);
                incr faults;
                last_detail := printed;
                false
          in
          if (not complete) && rest <> [] && not (Budget.expired overall) then begin
            incr fallbacks;
            try_stage (index + 1) rest
          end
        end
  in
  if stages = [] then
    Error (Error.Invalid_input { what = "chain"; message = "no stages" })
  else begin
    try_stage 0 stages;
    let elapsed_s = Budget.now_s () -. start in
    let trace = List.rev !trace in
    match !candidate with
    | None ->
        if Budget.expired overall then
          Error (Error.Timeout { stage = !last_stage; elapsed_s })
        else
          Error
            (Error.Exhausted
               { stages = !stages_tried; last = !last_stage; detail = !last_detail })
    | Some (value, stage, index, complete) ->
        let status = if complete && index = 0 then Complete else Degraded in
        let reason =
          match status with
          | Complete -> None
          | Degraded ->
              List.find_map
                (fun t ->
                  match t.t_verdict with
                  | Completed -> None
                  | Timed_out ->
                      Some (Printf.sprintf "stage %s timed out" t.t_stage)
                  | Faulted e ->
                      Some (Printf.sprintf "stage %s faulted: %s" t.t_stage e))
                trace
        in
        Ok
          {
            value;
            status;
            reason;
            stage;
            stages_tried = !stages_tried;
            fallbacks = !fallbacks;
            faults = !faults;
            elapsed_s;
            trace;
          }
  end
