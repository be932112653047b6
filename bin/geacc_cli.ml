(* geacc: command-line front end for the GEACC library.

   Subcommands: generate (synthetic / meetup instances), solve, validate,
   info. Exit codes: 0 success, 1 usage/parse/input error, 2 infeasible
   matching (validate), 3 feasible-but-degraded result (solve under
   --timeout/--fallback: a deadline, fault or fallback kept the run from
   completing its preferred algorithm). *)

open Cmdliner
open Geacc_core
module Robust = Geacc_robust

let exit_degraded = 3

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "geacc: %s\n" msg;
      exit 1)
    fmt

(* A malformed fault plan must not silently disable the faults a CI job
   believes it is injecting. *)
let check_fault_plan () =
  match Robust.Fault.plan_error () with
  | None -> ()
  | Some e -> die "malformed GEACC_FAULTS: %s" e

let load_instance_or_die path =
  check_fault_plan ();
  match Geacc_io.Instance_io.read_instance_result ~path with
  | Error e -> die "%s" (Robust.Error.to_string e)
  | Ok instance -> instance

let setup_logs style_renderer level =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ())

let logs_term =
  Term.(const setup_logs $ Fmt_cli.style_renderer () $ Logs_cli.level ())

(* -- shared arguments ------------------------------------------------- *)

let seed_arg =
  let doc = "Random seed (all generation and baselines are deterministic)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let instance_arg =
  let doc = "Path to a geacc-instance file." in
  Arg.(required & opt (some file) None & info [ "instance"; "i" ] ~docv:"FILE" ~doc)

let algorithm_conv =
  let parse s = Solver.of_string s |> Result.map_error (fun e -> `Msg e) in
  let print ppf a = Format.pp_print_string ppf (Solver.short_name a) in
  Arg.conv (parse, print)

(* -- generate --------------------------------------------------------- *)

let attrs_conv =
  let parse = function
    | "uniform" -> Ok Geacc_datagen.Synthetic.Attr_uniform
    | "zipf" -> Ok (Geacc_datagen.Synthetic.Attr_zipf 1.3)
    | "normal" -> Ok Geacc_datagen.Synthetic.Attr_normal_mixture
    | s -> Error (`Msg (Printf.sprintf "unknown attribute model %S" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with
      | Geacc_datagen.Synthetic.Attr_uniform -> "uniform"
      | Geacc_datagen.Synthetic.Attr_zipf _ -> "zipf"
      | Geacc_datagen.Synthetic.Attr_normal_mixture -> "normal")
  in
  Arg.conv (parse, print)

let city_conv =
  let parse s =
    let s = String.lowercase_ascii s in
    match
      List.find_opt
        (fun (c : Geacc_datagen.Meetup.city) ->
          String.lowercase_ascii c.Geacc_datagen.Meetup.name = s)
        Geacc_datagen.Meetup.cities
    with
    | Some c -> Ok c
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown city %S (vancouver, auckland, singapore)"
                s))
  in
  let print ppf (c : Geacc_datagen.Meetup.city) =
    Format.pp_print_string ppf c.Geacc_datagen.Meetup.name
  in
  Arg.conv (parse, print)

(* Numeric flag checks: each exits 1 naming the flag, and every subcommand
   runs them before it reads or writes any file. The float checks are
   written so that NaN fails them. *)
let at_least flag lo n =
  if n < lo then die "%s must be at least %d, got %d" flag lo n

let in_unit_interval flag x =
  if not (x >= 0. && x <= 1.) then die "%s must be in [0, 1], got %g" flag x

let finite_above_zero flag x =
  if not (Float.is_finite x && x > 0.) then
    die "%s must be a finite number above 0, got %g" flag x

let generate_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output instance file.")
  in
  let events =
    Arg.(value & opt int 100 & info [ "events" ] ~docv:"N" ~doc:"Number of events |V|.")
  in
  let users =
    Arg.(value & opt int 1000 & info [ "users" ] ~docv:"N" ~doc:"Number of users |U|.")
  in
  let dim = Arg.(value & opt int 20 & info [ "dim" ] ~docv:"D" ~doc:"Attribute dimensionality.") in
  let tmax = Arg.(value & opt float 10000. & info [ "tmax" ] ~docv:"T" ~doc:"Attribute range T.") in
  let attrs =
    Arg.(
      value
      & opt attrs_conv Geacc_datagen.Synthetic.Attr_uniform
      & info [ "attrs" ] ~docv:"MODEL" ~doc:"Attribute model: uniform, zipf or normal.")
  in
  let cv_max =
    Arg.(value & opt int 50 & info [ "cv-max" ] ~docv:"N" ~doc:"Event capacities Uniform[1,N].")
  in
  let cu_max =
    Arg.(value & opt int 4 & info [ "cu-max" ] ~docv:"N" ~doc:"User capacities Uniform[1,N].")
  in
  let conflict_ratio =
    Arg.(
      value & opt float 0.25
      & info [ "conflict-ratio" ] ~docv:"R"
          ~doc:"Conflicting fraction of event pairs, in [0,1].")
  in
  let meetup =
    Arg.(
      value
      & opt (some city_conv) None
      & info [ "meetup" ] ~docv:"CITY"
          ~doc:
            "Generate the simulated Meetup dataset for CITY instead of the \
             synthetic model (vancouver, auckland or singapore).")
  in
  let run () out events users dim tmax attrs cv_max cu_max conflict_ratio
      meetup seed =
    at_least "--events" 0 events;
    at_least "--users" 0 users;
    at_least "--dim" 1 dim;
    (* The similarity's diameter is sqrt(dim * tmax^2). *)
    let diameter2 = float_of_int dim *. tmax *. tmax in
    if not (Float.is_finite diameter2 && diameter2 > 0. && tmax > 0.) then
      die "--tmax must be positive with --dim * tmax^2 finite, got %g"
        tmax;
    at_least "--cv-max" 1 cv_max;
    at_least "--cu-max" 1 cu_max;
    in_unit_interval "--conflict-ratio" conflict_ratio;
    let instance =
      match meetup with
      | Some city ->
          Geacc_datagen.Meetup.generate ~seed ~conflict_ratio city
      | None ->
          Geacc_datagen.Synthetic.generate ~seed
            {
              Geacc_datagen.Synthetic.n_events = events;
              n_users = users;
              dim;
              t_max = tmax;
              attrs;
              event_capacity = Geacc_datagen.Synthetic.Cap_uniform cv_max;
              user_capacity = Geacc_datagen.Synthetic.Cap_uniform cu_max;
              conflict_ratio;
            }
    in
    Geacc_io.Instance_io.write_instance ~path:out instance;
    Logs.app (fun m ->
        m "wrote %s: %a" out Instance.pp_summary instance)
  in
  let term =
    Term.(
      const run $ logs_term $ out $ events $ users $ dim $ tmax $ attrs
      $ cv_max $ cu_max $ conflict_ratio $ meetup $ seed_arg)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic or simulated-Meetup instance.")
    term

(* -- solve ------------------------------------------------------------ *)

let write_matching_opt out matching =
  match out with
  | None -> ()
  | Some path ->
      Geacc_io.Instance_io.write_pairs ~path (Matching.pairs matching);
      Logs.app (fun f -> f "wrote matching to %s" path)

(* The anytime path: run the fallback chain (or a single budgeted
   algorithm), report status on stdout, telemetry on stderr, and map a
   degraded-but-feasible result to a distinct exit code so schedulers can
   tell "optimal" from "best effort by the deadline". *)
let solve_anytime instance ~algorithm ~fallback ~timeout ~stage_timeout
    ~max_retries ~out =
  let algorithms =
    if fallback then Anytime.default_chain else [ algorithm ]
  in
  match
    Anytime.solve ?timeout_s:timeout ?stage_timeout_s:stage_timeout
      ~max_retries ~algorithms instance
  with
  | Error e -> die "%s" (Robust.Error.to_string e)
  | Ok r ->
      let status_line =
        match (r.Anytime.status, r.Anytime.reason) with
        | Robust.Chain.Complete, _ -> "complete"
        | Robust.Chain.Degraded, Some reason ->
            Printf.sprintf "degraded (%s)" reason
        | Robust.Chain.Degraded, None -> "degraded"
      in
      Printf.printf
        "algorithm: %s\nMaxSum: %.6f\nmatched pairs: %d\nstatus: %s\ntime: %.3f ms\n"
        (Solver.name r.Anytime.algorithm)
        (Matching.maxsum r.Anytime.matching)
        (Matching.size r.Anytime.matching)
        status_line
        (r.Anytime.elapsed_s *. 1000.);
      Printf.eprintf
        "anytime: status=%s stage=%s stages-tried=%d fallbacks=%d retries=%d \
         faults=%d injected-faults=%d audit-violations=%d\n"
        (match r.Anytime.status with
        | Robust.Chain.Complete -> "complete"
        | Robust.Chain.Degraded -> "degraded")
        (Solver.short_name r.Anytime.algorithm)
        r.Anytime.stages_tried r.Anytime.fallbacks r.Anytime.retries
        r.Anytime.faults
        (Robust.Fault.fires ())
        (Geacc_check.Audit.violations ());
      let table =
        Geacc_util.Table.create ~title:"fallback chain trace"
          ~headers:[ "stage"; "attempt"; "verdict"; "seconds" ]
      in
      List.iter
        (fun (t : Robust.Chain.trace_entry) ->
          Geacc_util.Table.add_row table
            [
              t.Robust.Chain.t_stage;
              string_of_int t.Robust.Chain.t_attempt;
              Format.asprintf "%a" Robust.Chain.pp_verdict
                t.Robust.Chain.t_verdict;
              Printf.sprintf "%.3f" t.Robust.Chain.t_seconds;
            ])
        r.Anytime.trace;
      prerr_string (Geacc_util.Table.render table);
      write_matching_opt out r.Anytime.matching;
      flush stdout;
      flush stderr;
      match r.Anytime.status with
      | Robust.Chain.Complete -> ()
      | Robust.Chain.Degraded -> exit exit_degraded

let solve_online_order instance ~order ~out =
  match Online.solve ~order:(Array.of_list order) instance with
  | Error e -> die "%s" (Robust.Error.to_string e)
  | Ok matching ->
      Printf.printf "algorithm: %s\nMaxSum: %.6f\nmatched pairs: %d\n"
        (Solver.name Solver.Online)
        (Matching.maxsum matching) (Matching.size matching);
      write_matching_opt out matching

let solve_cmd =
  let algorithm =
    Arg.(
      value
      & opt algorithm_conv Solver.Greedy
      & info [ "algorithm"; "a" ] ~docv:"ALGO"
          ~doc:
            "Algorithm: greedy, mincostflow, prune, exhaustive, random-v or \
             random-u.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the matching to FILE.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Overall time budget. The solvers become anytime: on expiry the \
             best feasible matching found so far is returned, the result is \
             marked degraded and the exit code is 3.")
  in
  let stage_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "stage-timeout" ] ~docv:"SECS"
          ~doc:"Additional per-stage cap within the overall $(b,--timeout).")
  in
  let fallback =
    Arg.(
      value & flag
      & info [ "fallback" ]
          ~doc:
            "Run the quality-first fallback chain exhaustive -> prune -> \
             mincostflow -> greedy instead of a single algorithm; the best \
             candidate by MaxSum wins.")
  in
  let max_retries =
    Arg.(
      value & opt int 1
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"Retries per stage for transient faults (with backoff).")
  in
  let order =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "order" ] ~docv:"IDS"
          ~doc:
            "Comma-separated user arrival order for $(b,-a online); must be \
             a permutation of the user ids.")
  in
  let min_sim =
    Arg.(
      value & opt float 0.
      & info [ "min-sim" ] ~docv:"TAU"
          ~doc:
            "Similarity gate for the flow network of $(b,-a mincostflow): \
             only pairs with sim >= TAU get an arc (TAU > 0 trades \
             matching quality for speed). Requires 0 <= TAU <= 1.")
  in
  let run () instance_path algorithm out seed timeout stage_timeout
      fallback max_retries order min_sim =
    in_unit_interval "--min-sim" min_sim;
    Option.iter (finite_above_zero "--timeout") timeout;
    Option.iter (finite_above_zero "--stage-timeout") stage_timeout;
    at_least "--max-retries" 0 max_retries;
    Mincostflow.set_default_min_sim min_sim;
    let instance = load_instance_or_die instance_path in
    match order with
    | Some order ->
        if algorithm <> Solver.Online then
          die "--order only applies to --algorithm online";
        solve_online_order instance ~order ~out
    | None ->
        if fallback || timeout <> None || stage_timeout <> None then
          solve_anytime instance ~algorithm ~fallback ~timeout ~stage_timeout
            ~max_retries ~out
        else begin
          let m = Geacc_bench.Harness.measure ~seed algorithm instance in
          Printf.printf
            "algorithm: %s\nMaxSum: %.6f\nmatched pairs: %d\ntime: %.3f ms\nmemory: %.1f KB\n"
            (Solver.name m.Geacc_bench.Harness.algorithm)
            m.Geacc_bench.Harness.maxsum m.Geacc_bench.Harness.matched_pairs
            (m.Geacc_bench.Harness.wall_s *. 1000.)
            (float_of_int m.Geacc_bench.Harness.live_bytes /. 1024.);
          write_matching_opt out m.Geacc_bench.Harness.matching
        end
  in
  let term =
    Term.(
      const run $ logs_term $ instance_arg $ algorithm $ out $ seed_arg
      $ timeout $ stage_timeout $ fallback $ max_retries $ order
      $ min_sim)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve an instance and report MaxSum/time/memory.")
    term

(* -- validate ---------------------------------------------------------- *)

let validate_cmd =
  let matching_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "matching"; "m" ] ~docv:"FILE" ~doc:"Path to a geacc-matching file.")
  in
  let run () instance_path matching_path =
    let instance = load_instance_or_die instance_path in
    let pairs =
      try Geacc_io.Instance_io.read_pairs ~path:matching_path with
      | Geacc_io.Instance_io.Parse_error { line; message } ->
          die "%s"
            (Robust.Error.to_string
               (Robust.Error.Parse_error { line; message }))
      | Sys_error message ->
          die "%s"
            (Robust.Error.to_string
               (Robust.Error.Io_error { path = matching_path; message }))
    in
    match Validate.check instance pairs with
    | [] ->
        let maxsum =
          List.fold_left
            (fun acc (v, u) -> acc +. Instance.sim instance ~v ~u)
            0. pairs
        in
        Printf.printf "feasible: %d pairs, MaxSum %.6f\n" (List.length pairs)
          maxsum
    | violations ->
        List.iter
          (fun v ->
            Format.eprintf "violation: %a@." Validate.pp_violation v)
          violations;
        Printf.eprintf "geacc: %d violations\n" (List.length violations);
        exit 2
  in
  let term = Term.(const run $ logs_term $ instance_arg $ matching_arg) in
  Cmd.v
    (Cmd.info "validate" ~doc:"Check a matching file against an instance.")
    term

(* -- serve ------------------------------------------------------------- *)

module Serve = Geacc_serve

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 4096
     done
   with End_of_file -> ());
  Buffer.contents buf

let serve_cmd =
  let trace_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "trace"; "t" ] ~docv:"FILE"
          ~doc:"Trace file (geacc-trace 1); $(b,-) reads standard input.")
  in
  let state_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "state" ] ~docv:"DIR"
          ~doc:
            "State directory holding the write-ahead journal and snapshots; \
             created if missing, recovered from if not empty.")
  in
  let repair_arg =
    Arg.(
      value & opt string "incremental"
      & info [ "repair" ] ~docv:"MODE"
          ~doc:
            "Arrangement maintenance: $(b,incremental) (re-walk only the \
             users whose seats the batch changed, bit-identical to full), \
             $(b,full) (re-walk every user each batch) or $(b,offline) \
             (re-solve with the anytime mincostflow -> greedy chain).")
  in
  let batch_timeout =
    Arg.(
      value & opt float 0.
      & info [ "batch-timeout" ] ~docv:"SECS"
          ~doc:
            "Per-batch repair deadline; an expired batch is acknowledged \
             degraded (exit 3) and finished by later batches. 0 = none.")
  in
  let queue_cap =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission bound per timestamp group; $(b,must) batches always \
             pass, excess $(b,should)/$(b,optional) batches are shed.")
  in
  let snapshot_every =
    Arg.(
      value & opt int 32
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Snapshot the state and truncate the journal once N records \
             have accumulated in the journal. 0 = never.")
  in
  let max_retries =
    Arg.(
      value & opt int 2
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"Repair retries for transient faults (with backoff).")
  in
  let no_fsync =
    Arg.(
      value & flag
      & info [ "no-fsync" ]
          ~doc:
            "Skip fsync on journal appends — faster, loses the crash-safety \
             guarantee (benchmarks only).")
  in
  let digest_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "digest" ] ~docv:"FILE"
          ~doc:
            "Write the final state digest to FILE (crash-recovery CI \
             compares these across runs).")
  in
  let run () trace_path state_dir repair_mode batch_timeout
      queue_cap snapshot_every max_retries no_fsync digest_file =
    if not (Float.is_finite batch_timeout && batch_timeout >= 0.) then
      die "--batch-timeout must be a finite number of at least 0, got %g"
        batch_timeout;
    at_least "--queue-cap" 0 queue_cap;
    at_least "--snapshot-every" 0 snapshot_every;
    at_least "--max-retries" 0 max_retries;
    check_fault_plan ();
    let mode =
      match Serve.Serve_loop.mode_of_string repair_mode with
      | Some m -> m
      | None ->
          die "unknown --repair mode %S (incremental, full or offline)"
            repair_mode
    in
    let text =
      if trace_path = "-" then read_all stdin
      else
        match
          let ic = open_in trace_path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with
        | exception Sys_error message -> die "%s: %s" trace_path message
        | text -> text
    in
    let trace =
      match Serve.Trace.parse text with
      | Ok t -> t
      | Error e -> die "%s" (Robust.Error.to_string e)
    in
    let config =
      {
        (Serve.Serve_loop.default ~state_dir) with
        Serve.Serve_loop.mode;
        batch_timeout_s = batch_timeout;
        queue_cap;
        snapshot_every;
        max_retries;
        fsync = not no_fsync;
      }
    in
    match
      try Ok (Serve.Serve_loop.run config ~out:stdout trace)
      with Robust.Fault.Injected { point } -> Error point
    with
    | Error point ->
        (* A simulated crash: leave the state directory exactly as a dying
           process would and report distinctly. *)
        flush stdout;
        Printf.eprintf "geacc: injected crash at %s\n" point;
        exit 1
    | Ok (Error e) -> die "%s" (Robust.Error.to_string e)
    | Ok (Ok report) ->
        (match digest_file with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                output_string oc (report.Serve.Serve_loop.digest ^ "\n")));
        Printf.eprintf
          "serve: batches=%d admitted=%d shed=%d skipped=%d applied=%d \
           errors=%d degraded=%d full-replays=%d rewalked=%d snapshots=%d \
           retries=%d replayed=%d injected-faults=%d\n"
          report.Serve.Serve_loop.batches report.Serve.Serve_loop.admitted
          report.Serve.Serve_loop.shed report.Serve.Serve_loop.skipped
          report.Serve.Serve_loop.applied report.Serve.Serve_loop.errors
          report.Serve.Serve_loop.degraded_batches
          report.Serve.Serve_loop.full_replays
          report.Serve.Serve_loop.rewalked
          report.Serve.Serve_loop.snapshots report.Serve.Serve_loop.retries
          report.Serve.Serve_loop.replayed
          (Robust.Fault.fires ());
        flush stdout;
        flush stderr;
        let status = Serve.Serve_loop.exit_status report in
        if status <> 0 then exit status
  in
  let term =
    Term.(
      const run $ logs_term $ trace_arg $ state_arg $ repair_arg
      $ batch_timeout $ queue_cap $ snapshot_every
      $ max_retries $ no_fsync $ digest_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the crash-safe serving loop over a timestamped batch trace: \
          write-ahead journal, snapshot recovery, incremental repair and \
          admission control.")
    term

(* -- generate-trace ---------------------------------------------------- *)

let generate_trace_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let city =
    Arg.(
      value
      & opt city_conv Geacc_datagen.Meetup.auckland
      & info [ "meetup" ] ~docv:"CITY"
          ~doc:
            "City population to stream (vancouver, auckland or singapore).")
  in
  let conflict_ratio =
    Arg.(
      value & opt float 0.25
      & info [ "conflict-ratio" ] ~docv:"R"
          ~doc:"Conflicting fraction of event pairs, in [0,1].")
  in
  let arrivals =
    Arg.(
      value & opt int 8
      & info [ "arrivals-per-batch" ] ~docv:"N"
          ~doc:"Mean user arrivals per batch (burst size), at least 1.")
  in
  let churn =
    Arg.(
      value & opt float 0.1
      & info [ "churn" ] ~docv:"P"
          ~doc:"Probability of a user departure in each batch, in [0,1].")
  in
  let run () out city conflict_ratio arrivals churn seed =
    in_unit_interval "--conflict-ratio" conflict_ratio;
    at_least "--arrivals-per-batch" 1 arrivals;
    in_unit_interval "--churn" churn;
    let trace =
      Geacc_datagen.Trace_gen.generate ~seed ~city ~conflict_ratio
        ~arrivals_per_batch:arrivals ~churn ()
    in
    Serve.Trace.write ~path:out trace;
    Logs.app (fun m ->
        m "wrote %s: %d batches over %d events, %d users" out
          (List.length trace.Serve.Trace.batches)
          city.Geacc_datagen.Meetup.n_events
          city.Geacc_datagen.Meetup.n_users)
  in
  let term =
    Term.(
      const run $ logs_term $ out $ city $ conflict_ratio $ arrivals $ churn
      $ seed_arg)
  in
  Cmd.v
    (Cmd.info "generate-trace"
       ~doc:"Generate a Meetup-shaped timestamped workload trace for serve.")
    term

(* -- faults ------------------------------------------------------------ *)

let faults_cmd =
  let run () =
    List.iter
      (fun (point, doc) -> Printf.printf "%-16s %s\n" point doc)
      Robust.Fault.known
  in
  let term = Term.(const run $ logs_term) in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "List the GEACC_FAULTS fault points the binaries are instrumented \
          with.")
    term

(* -- info -------------------------------------------------------------- *)

let info_cmd =
  let run () instance_path =
    let instance = load_instance_or_die instance_path in
    Format.printf "%a@." Instance.pp_summary instance
  in
  let term = Term.(const run $ logs_term $ instance_arg) in
  Cmd.v (Cmd.info "info" ~doc:"Print summary statistics of an instance.") term

let main =
  let doc = "Conflict-aware event-participant arrangement (GEACC, ICDE 2015)" in
  Cmd.group
    (Cmd.info "geacc" ~version:"1.0.0" ~doc)
    [
      generate_cmd;
      generate_trace_cmd;
      solve_cmd;
      serve_cmd;
      validate_cmd;
      faults_cmd;
      info_cmd;
    ]

let () = exit (Cmd.eval main)
