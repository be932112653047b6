(* Benchmark driver: regenerates every table/figure of the paper's
   evaluation (Section V).

   Usage:
     dune exec bench/main.exe                 # all experiments, quick profile
     dune exec bench/main.exe -- fig3-v fig6-search
     dune exec bench/main.exe -- --full       # paper-scale sweeps (slow)
     dune exec bench/main.exe -- --trials 5 fig3-cf
     dune exec bench/main.exe -- --list       # experiment ids *)

let usage () =
  print_endline
    "usage: main.exe [--full] [--trials N] [--list] [EXPERIMENT...]";
  print_endline "experiments:";
  List.iter
    (fun (id, doc, _) -> Printf.printf "  %-12s %s\n" id doc)
    Experiments.all;
  Printf.printf "  %-12s %s\n" "micro" "Bechamel micro-benchmarks of the kernels"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = ref false and trials = ref Experiments.default_trials in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
        full := true;
        parse rest
    | "--trials" :: n :: rest ->
        (match int_of_string_opt n with
        | Some t when t >= 1 -> trials := t
        | _ ->
            prerr_endline "--trials expects a positive integer";
            exit 1);
        parse rest
    | ("--list" | "--help" | "-h") :: _ ->
        usage ();
        exit 0
    | id :: rest ->
        selected := id :: !selected;
        parse rest
  in
  parse args;
  let profile = { Experiments.full = !full; trials = !trials } in
  let to_run =
    match List.rev !selected with
    | [] -> List.map (fun (id, _, _) -> id) Experiments.all @ [ "micro" ]
    | ids -> ids
  in
  let started = Unix.gettimeofday () in
  List.iter
    (fun id ->
      if id = "micro" then Micro.run ()
      else
        match List.find_opt (fun (i, _, _) -> i = id) Experiments.all with
        | Some (_, _, run) -> run profile
        | None ->
            Printf.eprintf "unknown experiment %S\n" id;
            usage ();
            exit 1)
    to_run;
  Printf.printf "total bench time: %.1f s\n"
    (Unix.gettimeofday () -. started)
