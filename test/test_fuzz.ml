(* Differential fuzzing across all solvers.

   ~200 seeded random instances (sizes small enough for the exact searches),
   every [Solver.algorithm] on each. Invariants checked per instance:

   - every algorithm's matching passes the independent [Validate] check;
   - the exact solvers agree with each other and dominate every
     approximation/baseline on MaxSum;
   - the heap greedy and the sort-all-pairs naive greedy produce identical
     arrangements (shared tie-breaking contract, see Greedy_naive docs);
   - MinCostFlow routes the reference oracle's flow value at its integer
     cost ([Ref_mcf] on the paper's complete network, below).

   Deterministic: instance shapes are derived from a seeded RNG, and every
   solver consumes a freshly-seeded RNG of its own. *)

open Geacc_core
module Synthetic = Geacc_datagen.Synthetic
module Rng = Geacc_util.Rng

let n_instances = 200

let config_of rng =
  {
    Synthetic.default with
    Synthetic.n_events = Rng.int_in rng 2 4;
    n_users = Rng.int_in rng 3 8;
    dim = Rng.int_in rng 1 3;
    t_max = 100.;
    event_capacity = Synthetic.Cap_uniform (Rng.int_in rng 1 3);
    user_capacity = Synthetic.Cap_uniform (Rng.int_in rng 1 2);
    conflict_ratio = Rng.float rng 0.6;
  }

let exact = [ Solver.Prune; Solver.Exhaustive ]

(* GEACC_FUZZ_DIGEST=<path>: write a canonical digest of the sweep — per
   seed and solver, MaxSum as exact float bits plus the matched pairs.
   The safe/default profile differential CI job runs the sweep once per
   profile and byte-compares the two files: licensed unsafe_* kernels and
   their checked `--profile safe` twins must produce identical
   arrangements, not merely close objectives. *)
let digest_out = Sys.getenv_opt "GEACC_FUZZ_DIGEST"
let digest_buf = Buffer.create 256

let record_digest ~seed results =
  match digest_out with
  | None -> ()
  | Some _ ->
      List.iter
        (fun (a, m) ->
          Buffer.add_string digest_buf
            (Printf.sprintf "%d %s %Lx |%s\n" seed (Solver.short_name a)
               (Int64.bits_of_float (Matching.maxsum m))
               (String.concat ";"
                  (List.map
                     (fun (v, u) -> Printf.sprintf "%d,%d" v u)
                     (Matching.pairs m)))))
        results

let write_digest () =
  match digest_out with
  | None -> ()
  | Some path ->
      let oc = open_out_bin path in
      output_string oc (Buffer.contents digest_buf);
      close_out oc

(* Ref_mcf on the complete network, then the paper's conflict resolution
   (per user, keep events in descending similarity, skip conflicting). *)
let oracle instance =
  let n_v = Instance.n_events instance and n_u = Instance.n_users instance in
  let scale = float_of_int Mincostflow.cost_scale in
  let sink = n_v + n_u + 1 in
  let pairs =
    List.concat_map
      (fun v -> List.init n_u (fun u -> (v, u)))
      (List.init n_v Fun.id)
  in
  let arcs =
    List.init n_v (fun v ->
        { Ref_mcf.src = 0; dst = 1 + v; cap = Instance.event_capacity instance v;
          cost = 0 })
    @ List.map
        (fun (v, u) ->
          let s = Instance.sim instance ~v ~u in
          { Ref_mcf.src = 1 + v; dst = 1 + n_v + u; cap = 1;
            cost = int_of_float (Float.round ((1. -. s) *. scale)) })
        pairs
    @ List.init n_u (fun u ->
          { Ref_mcf.src = 1 + n_v + u; dst = sink;
            cap = Instance.user_capacity instance u; cost = 0 })
  in
  let r =
    Ref_mcf.solve ~n:(sink + 1) ~source:0 ~sink
      ~stop_below:Mincostflow.cost_scale arcs
  in
  let m = Matching.create instance in
  let routed =
    List.filteri (fun i _ -> r.Ref_mcf.flows.(n_v + i) = 1) pairs
    |> List.map (fun (v, u) -> (u, v, Instance.sim instance ~v ~u))
    |> List.filter (fun (_, _, s) -> s > 0.)
    |> List.sort (fun (u1, v1, s1) (u2, v2, s2) ->
           let c = Int.compare u1 u2 in
           if c <> 0 then c
           else
             let c = Float.compare s2 s1 in
             if c <> 0 then c else Int.compare v1 v2)
  in
  List.iter
    (fun (u, v, _) ->
      if not (Matching.user_conflicts_with m ~u ~v) then
        ignore (Matching.add_exn m ~v ~u : float))
    routed;
  (r, m)

let check_instance ~seed t =
  let label a = Printf.sprintf "seed %d %s" seed (Solver.short_name a) in
  let results =
    List.map
      (fun a ->
        let rng = Rng.create ~seed:(seed + 7919) in
        let m = Solver.run ~rng a t in
        (a, m))
      Solver.all
  in
  record_digest ~seed results;
  (* 1. Feasibility, for every algorithm. *)
  List.iter
    (fun (a, m) ->
      match Validate.check_matching m with
      | [] -> ()
      | violations ->
          Alcotest.failf "%s: %d feasibility violations" (label a)
            (List.length violations))
    results;
  (* 2. The exact solvers agree and dominate everything else. *)
  let maxsum a = Matching.maxsum (List.assoc a results) in
  let opt = maxsum Solver.Prune in
  Alcotest.(check (float 1e-6))
    (Printf.sprintf "seed %d: prune = exhaustive" seed)
    opt
    (maxsum Solver.Exhaustive);
  List.iter
    (fun (a, m) ->
      if not (List.mem a exact) then
        let got = Matching.maxsum m in
        if got > opt +. 1e-6 then
          Alcotest.failf "%s: beats the optimum (%.9f > %.9f)" (label a) got
            opt)
    results;
  (* 3. Identical greedy arrangements, not just equal objectives. *)
  Alcotest.(check (list (pair int int)))
    (Printf.sprintf "seed %d: greedy = naive greedy" seed)
    (Matching.pairs (List.assoc Solver.Greedy results))
    (Matching.pairs (List.assoc Solver.Greedy_naive results));
  (* 4. MinCostFlow's flow is the reference oracle's: same value, same
     integer cost (the routed pairs may differ among tied paths). *)
  let reference, _ = oracle t in
  let _, stats = Mincostflow.solve_with_stats t in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: mcf flow value = oracle" seed)
    reference.Ref_mcf.flow stats.Mincostflow.flow_value;
  Alcotest.(check int)
    (Printf.sprintf "seed %d: mcf integer cost = oracle" seed)
    reference.Ref_mcf.cost
    (int_of_float
       (stats.Mincostflow.flow_cost *. float_of_int Mincostflow.cost_scale))

let test_differential () =
  let shape_rng = Rng.create ~seed:20150413 in
  for seed = 1 to n_instances do
    let t = Synthetic.generate ~seed (config_of shape_rng) in
    check_instance ~seed t
  done;
  write_digest ()

(* ---------- MinCostFlow-GEACC against the reference oracle ---------- *)

(* The production path — similarity-pruned network, integer SSP over the
   bucket queue, conflict resolution — checked against Ref_mcf run on the
   paper's complete network (one arc per (v,u) pair, zero-similarity ones
   included) with the same quantised costs. Both flows are min-cost for the
   smallest Δ maximising MaxSum, so the flow value and the integer cost
   must be exactly equal. The pair sets may legitimately differ: among
   exactly tied shortest paths the two searches can route differently, so
   MaxSum after conflict resolution is compared within 1e-6. Per attribute
   model (uniform / Zipf / normal mixture) and for jobs ∈ {1, 2, 4}.
   Instances come in two flavours: Equation-1 similarity (cutoff =
   attribute-space diameter, so nothing prunes) and a re-wrap of the same
   entities under a range/4 euclidean profile, which drives a large
   fraction of pairs to similarity exactly 0 and makes the pruning path do
   real work. *)
let tighten instance =
  Instance.create
    ~sim:
      (Similarity.euclidean ~dim:(Instance.dim instance)
         ~range:(Synthetic.default.Synthetic.t_max /. 4.))
    ~events:(Instance.events instance)
    ~users:(Instance.users instance)
    ~conflicts:(Instance.conflicts instance)
    ()

let test_oracle_differential () =
  let attr_models =
    [
      ("uniform", Synthetic.Attr_uniform);
      ("zipf", Synthetic.Attr_zipf 1.3);
      ("normal", Synthetic.Attr_normal_mixture);
    ]
  in
  let jobs_under_test = [ 1; 2; 4 ] in
  let pruned_pairs_seen = ref 0 in
  List.iter
    (fun (model_name, attrs) ->
      for seed = 1 to 8 do
        let cfg =
          {
            Synthetic.default with
            Synthetic.n_events = 3 + (seed mod 4);
            n_users = 10 + (3 * seed);
            dim = 1 + (seed mod 3);
            attrs;
            event_capacity = Synthetic.Cap_uniform 3;
            user_capacity = Synthetic.Cap_uniform 2;
            conflict_ratio = 0.3;
          }
        in
        let base = Synthetic.generate ~seed cfg in
        List.iter
          (fun (flavour, instance) ->
            let label fmt =
              Printf.ksprintf
                (fun s ->
                  Printf.sprintf "%s/%s seed=%d %s" model_name flavour seed s)
                fmt
            in
            let reference, ref_matching = oracle instance in
            List.iter
              (fun jobs ->
                let m, stats = Mincostflow.solve_with_stats ~jobs instance in
                (match Validate.check_matching m with
                | [] -> ()
                | violations ->
                    Alcotest.failf "%s: %d violations"
                      (label "jobs=%d" jobs)
                      (List.length violations));
                Alcotest.(check int)
                  (label "flow value, jobs=%d" jobs)
                  reference.Ref_mcf.flow stats.Mincostflow.flow_value;
                Alcotest.(check int)
                  (label "integer flow cost, jobs=%d" jobs)
                  reference.Ref_mcf.cost
                  (int_of_float
                     (stats.Mincostflow.flow_cost
                     *. float_of_int Mincostflow.cost_scale));
                Alcotest.(check (float 1e-6))
                  (label "maxsum, jobs=%d" jobs)
                  (Matching.maxsum ref_matching) (Matching.maxsum m);
                pruned_pairs_seen :=
                  !pruned_pairs_seen + stats.Mincostflow.dense_pairs
                  - stats.Mincostflow.pair_arcs)
              jobs_under_test)
          [ ("eq1", base); ("tight", tighten base) ]
      done)
    attr_models;
  (* The sweep is only meaningful if the pruning path actually fired. *)
  if !pruned_pairs_seen = 0 then
    Alcotest.fail "no pair was ever pruned — tight instances too loose"

let suite =
  [
    Alcotest.test_case "200-instance differential sweep" `Slow
      test_differential;
    Alcotest.test_case "sparse mcf = reference oracle" `Slow
      test_oracle_differential;
  ]
