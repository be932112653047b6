(* What every workload shares: the run context, input seeds, timing,
   correctness accounting and scratch directories. *)

open Geacc_core

type ctx = {
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;  (* tiny inputs and fixed op counts, for the cram test *)
}

let now = Unix.gettimeofday

(* Setups per run; [setup_s] is their median. *)
let setup_reps = 3

(* A solve slower than this counts as a failed op. *)
let op_timeout_s = 60.

(* Correctness accounting for one run: ops attempted and failed, and one
   line per distinct gate failure. *)
type gates = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let gates () = { attempted = 0; failed = 0; errors = [] }

let note g msg = if not (List.mem msg g.errors) then g.errors <- msg :: g.errors

let fail g msg =
  g.failed <- g.failed + 1;
  note g msg

let result g ~values ~info =
  { Metric.attempted = g.attempted; failed = g.failed; errors = List.rev g.errors; values; info }

(* Generator seed of input [k] of a run. Input 0 is the reference input:
   the same in every run whatever the seed, so the quality and memory
   metrics measured on it repeat exactly from run to run and can carry
   tight bounds. The other inputs come from the run's seed. *)
let input_seed ctx k = if k = 0 then 0 else (1000 * ctx.seed) + k

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* A fresh state directory under [Filename.get_temp_dir_name ()]; the
   caller removes it with {!rm_rf}. *)
let fresh_dir () = Filename.temp_dir "geacc-suite-" ""

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Cold copy: same data, fresh neighbour caches, so each solve pays the
   index build the way a CLI run does. *)
let cold inst = Instance.with_backend inst Geacc_index.Nn_backend.kd_tree

let violation m =
  match Validate.check_matching m with
  | [] -> None
  | v :: _ -> Some (Format.asprintf "%a" Validate.pp_violation v)

(* The similarity-positive candidate users of every event, in the order
   [Instance.candidate_users] gives them. *)
let candidates inst =
  Instance.prepare_event_queries inst;
  Array.init (Instance.n_events inst) (fun v ->
      Instance.candidate_users inst ~v ~min_sim:0.)

(* Mean [Matching.user_conflicts_with] time over every (user, candidate
   event) pair, in nanoseconds. *)
let conflict_probe_ns m cands =
  let probes = ref 0 in
  let t0 = now () in
  Array.iteri
    (fun v row ->
      Array.iter
        (fun (u, _) ->
          incr probes;
          ignore (Matching.user_conflicts_with m ~u ~v : bool))
        row)
    cands;
  let t = now () -. t0 in
  if !probes = 0 then 0. else t *. 1e9 /. float_of_int !probes
