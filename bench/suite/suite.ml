(* The repository benchmark.

     suite.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
               [--spans PREFIX] [--smoke] [--bench FILE]
     suite.exe --compare BASE NEW [--bench FILE]

   Runs each workload (all four by default) in this one process with
   jobs = 1 and prints, per workload, a meta line and then one JSON result
   line: {"correct", "attempted", "failed", "metrics"}. Untraced runs
   report the end-to-end metrics, traced runs (--trace 1) the per-layer
   ones. --seconds is how a benchmark runner hands over BENCHMARK.json's
   run_seconds; the default is that same value. The exit status is 0 when
   every correctness gate held, 1 when one failed, 2 on a usage error. See
   README.md beside this file. *)

let workloads =
  [
    ("mcf-paper", fun ctx -> Solve_bench.run ctx Solve_bench.Mcf_paper);
    ("greedy-scale", fun ctx -> Solve_bench.run ctx Solve_bench.Greedy_scale);
    ("serve-arrivals", fun ctx -> Serve_bench.run ctx Serve_bench.Arrivals);
    ("serve-churn", fun ctx -> Serve_bench.run ctx Serve_bench.Churn);
  ]

let usage_exit msg =
  prerr_endline ("suite: " ^ msg);
  exit 2

(* Benchmark inputs come from --seed alone; an ambient GEACC_* setting
   (jobs, kernels, audits, faults) would change what is measured. *)
let refuse_geacc_env () =
  match
    List.filter
      (fun kv -> String.starts_with ~prefix:"GEACC_" kv)
      (Array.to_list (Unix.environment ()))
  with
  | [] -> ()
  | kv :: _ -> usage_exit ("refusing to run with " ^ kv ^ " set")

let defs ctx = if ctx.Common.traced then Metric.per_layer else Metric.end_to_end

let value (r : Metric.result) name =
  Option.value (List.assoc_opt name r.Metric.values) ~default:0.

let meta ctx name (r : Metric.result) =
  Json.Obj
    [
      ( "meta",
        Json.Obj
          ([
             ("workload", Json.Str name);
             ("seed", Json.Num (float_of_int ctx.Common.seed));
             ("seconds", Json.Num ctx.Common.seconds);
             ("trace", Json.Num (if ctx.Common.traced then 1. else 0.));
             ("jobs", Json.Num (float_of_int (Geacc_par.Pool.default_jobs ())));
             ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
             ("ocaml", Json.Str Sys.ocaml_version);
             ("errors", Json.Arr (List.map (fun e -> Json.Str e) r.Metric.errors));
           ]
          @ r.Metric.info) );
    ]

let result_line ctx (r : Metric.result) =
  Json.Obj
    [
      ("correct", Json.Bool (r.Metric.errors = []));
      ("attempted", Json.Num (float_of_int (max 1 r.Metric.attempted)));
      ("failed", Json.Num (float_of_int r.Metric.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (d : Metric.def) ->
               ( d.Metric.name,
                 Json.Obj
                   [
                     ("value", Json.Num (value r d.Metric.name));
                     ("unit", Json.Str d.Metric.unit);
                   ] ))
             (defs ctx)) );
    ]

(* The metrics BENCHMARK.json lists for this run's mode, as (name, unit
   and direction). *)
let listed ~bench ctx =
  let key = if ctx.Common.traced then "per_layer" else "end_to_end" in
  List.filter_map
    (fun m ->
      let field k = Json.to_str (Json.member k m) in
      match (field "name", field "unit", field "better") with
      | Some n, Some u, Some b -> Some (n, u ^ " " ^ b)
      | _ -> None)
    (Json.to_list (Json.member key bench))

(* The smoke listing: names, units and counts only, so it is stable
   enough for a cram test. Every metric BENCHMARK.json lists for this
   mode must be reported, with the same unit and a finite value, and
   nothing else may be. *)
let smoke_listing ~bench ctx name (r : Metric.result) =
  let listed = listed ~bench ctx in
  let reported =
    List.map
      (fun (d : Metric.def) ->
        (d.Metric.name, d.Metric.unit ^ " " ^ Metric.better_name d.Metric.better))
      (defs ctx)
  in
  let missing =
    List.filter_map
      (fun (n, u) ->
        if not (List.mem (n, u) reported) then Some (n ^ " " ^ u ^ ": not reported")
        else if not (Float.is_finite (value r n)) then Some (n ^ ": not finite")
        else None)
      listed
  in
  let extra =
    List.filter_map
      (fun (n, u) ->
        if List.mem (n, u) listed then None else Some (n ^ " " ^ u ^ ": not in BENCHMARK.json"))
      reported
  in
  Printf.printf "%s: correct %b, attempted %d, failed %d, metrics %d/%d\n" name
    (r.Metric.errors = []) r.Metric.attempted r.Metric.failed
    (List.length listed - List.length missing)
    (List.length listed);
  List.iter (fun e -> Printf.printf "  error: %s\n" e) r.Metric.errors;
  List.iter (fun p -> Printf.printf "  %s\n" p) (missing @ extra);
  listed <> [] && missing = [] && extra = []

let () =
  let names = ref [] and seed = ref 1 and seconds = ref 15. and trace = ref 0 in
  let spans = ref None and smoke = ref false and bench = ref "BENCHMARK.json" in
  let compare = ref None in
  let spec =
    [
      ( "--workload",
        Arg.String (fun w -> names := w :: !names),
        "NAME run this workload (repeatable; default: all four)" );
      ("--seed", Arg.Set_int seed, "N seed of every input generator (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time per workload (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run reporting per-layer metrics");
      ("--spans", Arg.String (fun p -> spans := Some p), "PREFIX write the spans of a traced run to PREFIX<workload>.json");
      ("--smoke", Arg.Set smoke, " tiny inputs, fixed op counts, listing instead of JSON");
      ("--bench", Arg.Set_string bench, "FILE BENCHMARK.json to check against (default ./BENCHMARK.json)");
      ( "--compare",
        Arg.Tuple
          (let base = ref "" in
           [ Arg.Set_string base; Arg.String (fun next -> compare := Some (!base, next)) ]),
        "BASE NEW compare two files of runs" );
    ]
  in
  Arg.parse spec (fun a -> usage_exit ("unexpected argument " ^ a)) "suite.exe [options]";
  match !compare with
  | Some (base, next) -> exit (Compare.run ~bench:!bench ~base ~next)
  | None ->
      refuse_geacc_env ();
      if !trace <> 0 && !trace <> 1 then usage_exit "--trace takes 0 or 1";
      if !seconds <= 0. then usage_exit "--seconds must be positive";
      let chosen =
        match List.rev !names with
        | [] -> workloads
        | ns ->
            List.map
              (fun n ->
                match List.assoc_opt n workloads with
                | Some f -> (n, f)
                | None -> usage_exit ("unknown workload " ^ n))
              ns
      in
      let bench_json =
        if not !smoke then Json.Null
        else
          match Json.parse (In_channel.with_open_bin !bench In_channel.input_all) with
          | Ok j -> j
          | Error e -> usage_exit (!bench ^ ": " ^ e)
          | exception Sys_error e -> usage_exit e
      in
      Geacc_par.Pool.set_default_jobs 1;
      (* State directories stay inside the working directory. *)
      let tmp_dir = Filename.concat (Sys.getcwd ()) ".bench_tmp" in
      let made_tmp = not (Sys.file_exists tmp_dir) in
      if made_tmp then Sys.mkdir tmp_dir 0o755;
      Filename.set_temp_dir_name tmp_dir;
      let ctx =
        { Common.seed = !seed; seconds = !seconds; traced = !trace = 1; smoke = !smoke }
      in
      if !smoke then
        List.iter
          (fun (d : Metric.def) ->
            Printf.printf "%-28s %-6s %s is better\n" d.Metric.name d.Metric.unit
              (Metric.better_name d.Metric.better))
          (defs ctx);
      let ok =
        Fun.protect
          ~finally:(fun () -> if made_tmp then Common.rm_rf tmp_dir)
          (fun () ->
            List.fold_left
              (fun ok (name, run) ->
                let r = run ctx in
                Option.iter
                  (fun p -> if ctx.Common.traced then Spans.write (p ^ name ^ ".json"))
                  !spans;
                let good =
                  if !smoke then smoke_listing ~bench:bench_json ctx name r
                  else begin
                    print_endline (Json.to_string (meta ctx name r));
                    print_endline (Json.to_string (result_line ctx r));
                    true
                  end
                in
                ok && good && r.Metric.errors = [])
              true chosen)
      in
      exit (if ok then 0 else 1)
