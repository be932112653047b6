(* Paper-figure experiments (Section V). Each [run] prints, per metric, a
   table whose rows are the sweep points and whose columns are the
   algorithms — the series of the corresponding figure. The [quick] profile
   (default) shrinks the most expensive sweep points so the whole suite
   terminates in minutes; [--full] restores the paper's TABLE III values. *)

open Geacc_core
open Geacc_util
module Synthetic = Geacc_datagen.Synthetic
module Meetup = Geacc_datagen.Meetup
module Harness = Geacc_bench.Harness

type profile = { full : bool; trials : int }

let default_trials = 3

(* The four algorithms of Fig 3 / Fig 4. *)
let fig34_algorithms =
  [ Solver.Greedy; Solver.Min_cost_flow; Solver.Random_v; Solver.Random_u ]

let metrics = [ `Maxsum; `Time_ms; `Memory_mb ]

let print_sweep_tables ~title ~xlabel ~rows ~algorithms =
  (* [rows]: (x label, aggregates in [algorithms] order). *)
  List.iter
    (fun metric ->
      let table =
        Table.create
          ~title:(Printf.sprintf "%s — %s" title (Harness.metric_label metric))
          ~headers:(xlabel :: List.map Solver.name algorithms)
      in
      List.iter
        (fun (x, aggregates) ->
          Table.add_float_row table ~label:x
            (List.map (Harness.metric metric) aggregates))
        rows;
      Table.print table)
    metrics

(* Generic sweep over pre-labelled instance families, averaged trials. *)
let labelled_sweep ~profile ~title ~xlabel ~points
    ?(algorithms = fig34_algorithms) () =
  Printf.eprintf "[bench] %s: %s in {%s}\n%!" title xlabel
    (String.concat ", " (List.map fst points));
  let rows =
    List.map
      (fun (label, make_instance) ->
        ( label,
          Harness.average ~trials:profile.trials ~make_instance algorithms ))
      points
  in
  print_sweep_tables ~title ~xlabel ~rows ~algorithms

(* Quick-profile base: the paper's defaults with |U| scaled down so that
   MinCostFlow-GEACC (quartic) stays tractable across the sweeps. *)
let base_config profile =
  if profile.full then Synthetic.default
  else { Synthetic.default with Synthetic.n_users = 400 }

let synth_point cfg = fun ~seed -> Synthetic.generate ~seed cfg

(* -- Fig 3: cardinality, dimensionality, conflict-set size ------------- *)

let fig3_v profile =
  let base = base_config profile in
  let xs = [ 20; 50; 100; 200; 500 ] in
  labelled_sweep ~profile ~title:"Fig 3 (col 1): varying |V|" ~xlabel:"|V|"
    ~points:
      (List.map
         (fun n ->
           (string_of_int n, synth_point { base with Synthetic.n_events = n }))
         xs)
    ()

let fig3_u profile =
  let base = base_config profile in
  let xs =
    if profile.full then [ 100; 200; 500; 1000; 2000; 5000 ]
    else [ 100; 200; 500; 1000 ]
  in
  labelled_sweep ~profile ~title:"Fig 3 (col 2): varying |U|" ~xlabel:"|U|"
    ~points:
      (List.map
         (fun n ->
           (string_of_int n, synth_point { base with Synthetic.n_users = n }))
         xs)
    ()

let fig3_d profile =
  let base = base_config profile in
  let xs = [ 2; 5; 10; 15; 20 ] in
  labelled_sweep ~profile ~title:"Fig 3 (col 3): varying dimensionality d"
    ~xlabel:"d"
    ~points:
      (List.map
         (fun d -> (string_of_int d, synth_point { base with Synthetic.dim = d }))
         xs)
    ()

let fig3_cf profile =
  let base = base_config profile in
  let xs = [ 0.; 0.25; 0.5; 0.75; 1. ] in
  labelled_sweep ~profile
    ~title:"Fig 3 (col 4): varying conflict ratio |CF|/(|V|(|V|-1)/2)"
    ~xlabel:"|CF| ratio"
    ~points:
      (List.map
         (fun r ->
           ( Printf.sprintf "%.2f" r,
             synth_point { base with Synthetic.conflict_ratio = r } ))
         xs)
    ()

(* -- Fig 4: capacities, distributions, real dataset -------------------- *)

let fig4_cv profile =
  let base = base_config profile in
  let xs = [ 10; 20; 50; 100; 200 ] in
  labelled_sweep ~profile ~title:"Fig 4 (col 1): varying max c_v"
    ~xlabel:"max c_v"
    ~points:
      (List.map
         (fun c ->
           ( string_of_int c,
             synth_point
               { base with Synthetic.event_capacity = Synthetic.Cap_uniform c }
           ))
         xs)
    ()

let fig4_cu profile =
  let base = base_config profile in
  let xs = [ 2; 4; 6; 8; 10 ] in
  labelled_sweep ~profile ~title:"Fig 4 (col 2): varying max c_u"
    ~xlabel:"max c_u"
    ~points:
      (List.map
         (fun c ->
           ( string_of_int c,
             synth_point
               { base with Synthetic.user_capacity = Synthetic.Cap_uniform c }
           ))
         xs)
    ()

let fig4_dist profile =
  let base =
    {
      (base_config profile) with
      Synthetic.attrs = Synthetic.Attr_zipf 1.3;
      event_capacity = Synthetic.Cap_normal (25., 12.5);
      user_capacity = Synthetic.Cap_normal (2., 1.);
    }
  in
  let xs = if profile.full then [ 20; 50; 100; 200; 500 ] else [ 20; 50; 100; 200 ] in
  labelled_sweep ~profile
    ~title:"Fig 4 (col 3): Zipf attributes + Normal capacities, varying |V|"
    ~xlabel:"|V|"
    ~points:
      (List.map
         (fun n ->
           (string_of_int n, synth_point { base with Synthetic.n_events = n }))
         xs)
    ()

let fig4_real profile =
  let xs = [ 0.; 0.25; 0.5; 0.75; 1. ] in
  labelled_sweep ~profile
    ~title:"Fig 4 (col 4): real dataset (simulated Meetup, Auckland)"
    ~xlabel:"|CF| ratio"
    ~points:
      (List.map
         (fun r ->
           ( Printf.sprintf "%.2f" r,
             fun ~seed ->
               Meetup.generate ~seed ~conflict_ratio:r Meetup.auckland ))
         xs)
    ()

(* -- Fig 5a,b: scalability of Greedy-GEACC ----------------------------- *)

let fig5_scalability profile =
  let vs = if profile.full then [ 100; 200; 500; 1000 ] else [ 100; 200; 500 ] in
  let us =
    if profile.full then [ 10_000; 25_000; 50_000; 75_000; 100_000 ]
    else [ 10_000; 25_000; 50_000 ]
  in
  let time_table =
    Table.create ~title:"Fig 5a: Greedy-GEACC scalability — time (ms)"
      ~headers:("|U|" :: List.map (fun v -> Printf.sprintf "|V|=%d" v) vs)
  and mem_table =
    Table.create ~title:"Fig 5b: Greedy-GEACC scalability — memory (MB)"
      ~headers:("|U|" :: List.map (fun v -> Printf.sprintf "|V|=%d" v) vs)
  in
  List.iter
    (fun n_users ->
      Printf.eprintf "[bench] fig5-scal: |U| = %d\n%!" n_users;
      let cells =
        List.map
          (fun n_events ->
            let cfg =
              {
                Synthetic.default with
                Synthetic.n_events;
                n_users;
                event_capacity = Synthetic.Cap_uniform 200;
              }
            in
            Harness.measure Solver.Greedy (Synthetic.generate ~seed:1 cfg))
          vs
      in
      Table.add_row time_table
        (string_of_int n_users
        :: List.map
             (fun (m : Harness.measurement) ->
               Printf.sprintf "%.4g" (m.Harness.wall_s *. 1000.))
             cells);
      Table.add_row mem_table
        (string_of_int n_users
        :: List.map
             (fun (m : Harness.measurement) ->
               Printf.sprintf "%.4g"
                 (float_of_int m.Harness.live_bytes /. (1024. *. 1024.)))
             cells))
    us;
  Table.print time_table;
  Table.print mem_table

(* -- Fig 5c,d: approximation quality against the exact optimum --------- *)

let exact_budget = 25_000_000

let fig5_approx profile =
  (* Exact search is worst-case exponential and some (ratio, seed) points
     genuinely explode, so the optimum is computed with the tightened bound
     under a visit budget; ratios average only the seeds whose search
     provably completed (the "exact seeds" column). *)
  let base =
    {
      Synthetic.default with
      Synthetic.n_events = 5;
      n_users = 15;
      event_capacity = Synthetic.Cap_uniform 10;
    }
  in
  let trials = Stdlib.max profile.trials 5 in
  let table =
    Table.create
      ~title:
        "Fig 5c: MaxSum vs optimal (|V|=5, |U|=15, c_v~U[1,10]; optimum by \
         exact search, budget-limited seeds excluded)"
      ~headers:
        [ "|CF| ratio"; "Greedy/Opt"; "MCF/Opt"; "mean Optimal";
          "exact seeds" ]
  in
  let time_table =
    Table.create ~title:"Fig 5d: mean running time (ms) of the same runs"
      ~headers:
        [ "|CF| ratio"; "Greedy-GEACC"; "MinCostFlow-GEACC"; "Exact" ]
  in
  List.iter
    (fun r ->
      Printf.eprintf "[bench] fig5-approx: |CF| ratio = %.2f\n%!" r;
      let cfg = { base with Synthetic.conflict_ratio = r } in
      let greedy_ratio = Stats.create ()
      and mcf_ratio = Stats.create ()
      and opts = Stats.create ()
      and t_greedy = Stats.create ()
      and t_mcf = Stats.create ()
      and t_exact = Stats.create () in
      for seed = 1 to trials do
        let instance = Synthetic.generate ~seed cfg in
        let greedy, tg = Measure.time (fun () -> Greedy.solve instance) in
        let mcf, tm = Measure.time (fun () -> Mincostflow.solve instance) in
        let (opt, st), te =
          Measure.time (fun () ->
              Exact.solve ~tighten:true ~budget:exact_budget instance)
        in
        Stats.add t_greedy (tg *. 1000.);
        Stats.add t_mcf (tm *. 1000.);
        Stats.add t_exact (te *. 1000.);
        if not st.Exact.exhausted_budget then begin
          let o = Matching.maxsum opt in
          Stats.add opts o;
          Stats.add greedy_ratio (Matching.maxsum greedy /. o);
          Stats.add mcf_ratio (Matching.maxsum mcf /. o)
        end
      done;
      Table.add_row table
        [
          Printf.sprintf "%.2f" r;
          Printf.sprintf "%.3f" (Stats.mean greedy_ratio);
          Printf.sprintf "%.3f" (Stats.mean mcf_ratio);
          Printf.sprintf "%.4f" (Stats.mean opts);
          Printf.sprintf "%d/%d" (Stats.count opts) trials;
        ];
      Table.add_float_row time_table
        ~label:(Printf.sprintf "%.2f" r)
        [ Stats.mean t_greedy; Stats.mean t_mcf; Stats.mean t_exact ])
    [ 0.; 0.25; 0.5; 0.75; 1. ];
  Table.print table;
  Table.print time_table

(* -- Fig 6: effectiveness of pruning ----------------------------------- *)

let fig6_exhaustive_budget = 80_000_000

let fig6_settings profile =
  (* Exhaustive search explodes combinatorially; these sizes let it finish
     (or hit a generous budget) per sweep point. *)
  if profile.full then (5, 8, 5, 2) else (5, 7, 5, 2)

let fig6_prune_depth profile =
  let trials = Stdlib.max profile.trials 3 in
  let table =
    Table.create
      ~title:
        "Fig 6a: Prune-GEACC averaged depth at pruning (|V|=5, c_v~U[1,10]; \
         dashes in the paper = max depth)"
      ~headers:
        [ "|CF| ratio"; "avg depth |U|=10"; "max depth |U|=10";
          "avg depth |U|=15"; "max depth |U|=15" ]
  in
  List.iter
    (fun r ->
      let cells =
        List.concat_map
          (fun n_users ->
            let s_avg = Stats.create () and s_max = Stats.create () in
            for seed = 1 to trials do
              let cfg =
                {
                  Synthetic.default with
                  Synthetic.n_events = 5;
                  n_users;
                  event_capacity = Synthetic.Cap_uniform 10;
                  conflict_ratio = r;
                }
              in
              let _, st = Exact.solve (Synthetic.generate ~seed cfg) in
              if st.Exact.prunes > 0 then
                Stats.add s_avg
                  (float_of_int st.Exact.prune_depth_total
                  /. float_of_int st.Exact.prunes);
              Stats.add s_max (float_of_int st.Exact.max_depth)
            done;
            [
              Printf.sprintf "%.1f" (Stats.mean s_avg);
              Printf.sprintf "%.0f" (Stats.mean s_max);
            ])
          [ 10; 15 ]
      in
      Table.add_row table (Printf.sprintf "%.2f" r :: cells))
    [ 0.; 0.25; 0.5; 0.75; 1. ];
  Table.print table

let fig6_vs_exhaustive profile =
  let n_events, n_users, cv, cu = fig6_settings profile in
  let headers =
    [ "|CF| ratio"; "Prune time (ms)"; "Exhaustive time (ms)";
      "Prune complete"; "Exhaustive complete"; "Prune invoked";
      "Exhaustive invoked"; "budget hit" ]
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Fig 6b-d: Prune-GEACC vs exhaustive search (|V|=%d, |U|=%d, \
            c_v~U[1,%d], c_u~U[1,%d])"
           n_events n_users cv cu)
      ~headers
  in
  List.iter
    (fun r ->
      Printf.eprintf "[bench] fig6: |CF| ratio = %.2f\n%!" r;
      let cfg =
        {
          Synthetic.default with
          Synthetic.n_events;
          n_users;
          event_capacity = Synthetic.Cap_uniform cv;
          user_capacity = Synthetic.Cap_uniform cu;
          conflict_ratio = r;
        }
      in
      let instance = Synthetic.generate ~seed:1 cfg in
      let (m1, st1), t_prune = Measure.time (fun () -> Exact.solve instance) in
      let (m2, st2), t_exh =
        Measure.time (fun () ->
            Exact.solve ~pruning:false ~warm_start:false
              ~budget:fig6_exhaustive_budget instance)
      in
      (* Both must agree on the optimum when neither was budget-limited. *)
      if not st2.Exact.exhausted_budget then
        assert (Float.abs (Matching.maxsum m1 -. Matching.maxsum m2) < 1e-6);
      Table.add_row table
        [
          Printf.sprintf "%.2f" r;
          Printf.sprintf "%.2f" (t_prune *. 1000.);
          Printf.sprintf "%.2f" (t_exh *. 1000.);
          string_of_int st1.Exact.complete_searches;
          string_of_int st2.Exact.complete_searches;
          string_of_int st1.Exact.invocations;
          string_of_int st2.Exact.invocations;
          string_of_bool st2.Exact.exhausted_budget;
        ])
    [ 0.; 0.25; 0.5; 0.75; 1. ];
  Table.print table

(* -- Ablations (beyond the paper): design-choice studies ---------------- *)

(* Greedy-GEACC's walk over the events' neighbour lists vs materialising
   and sorting all |V|x|U| pairs. Same arrangement by construction; the
   ablation quantifies the time/memory gap the lists buy, and it is a gate:
   any instance where the pairs or the MaxSum bits differ is printed and
   the run exits 1. *)
let ablation_greedy profile =
  let us =
    if profile.full then [ 1_000; 5_000; 10_000; 25_000; 50_000 ]
    else [ 1_000; 5_000; 10_000 ]
  in
  let table =
    Table.create
      ~title:
        "Ablation: Greedy-GEACC (event-list walk) vs naive sort-all-pairs \
         (|V|=100)"
      ~headers:
        [ "|U|"; "greedy time (ms)"; "naive time (ms)"; "greedy mem (MB)";
          "naive mem (MB)"; "same arrangement" ]
  in
  let mismatches = ref [] in
  List.iter
    (fun n_users ->
      Printf.eprintf "[bench] ablation-greedy: |U| = %d\n%!" n_users;
      let cfg = { Synthetic.default with Synthetic.n_users } in
      (* Each measured region solves an instance generated before it
         starts, so neither column counts generation. *)
      let timed solve =
        let inst = Synthetic.generate ~seed:1 cfg in
        Measure.time (fun () -> solve inst)
      and sampled solve =
        let inst = Synthetic.generate ~seed:1 cfg in
        let _, bytes, `Exact = Measure.run_with_peak (fun () -> solve inst) in
        bytes
      in
      let m1, t1 = timed Greedy.solve in
      let mem1 = sampled Greedy.solve in
      let m2, t2 = timed Greedy_naive.solve in
      let mem2 = sampled Greedy_naive.solve in
      let same =
        Matching.pairs m1 = Matching.pairs m2
        && Int64.equal
             (Int64.bits_of_float (Matching.maxsum m1))
             (Int64.bits_of_float (Matching.maxsum m2))
      in
      if not same then
        mismatches :=
          Printf.sprintf "|U| = %d: %d pairs, MaxSum %h vs naive %d pairs, %h"
            n_users (Matching.size m1) (Matching.maxsum m1) (Matching.size m2)
            (Matching.maxsum m2)
          :: !mismatches;
      Table.add_row table
        [
          string_of_int n_users;
          Printf.sprintf "%.1f" (t1 *. 1000.);
          Printf.sprintf "%.1f" (t2 *. 1000.);
          Printf.sprintf "%.1f" (float_of_int mem1 /. 1048576.);
          Printf.sprintf "%.1f" (float_of_int mem2 /. 1048576.);
          string_of_bool same;
        ])
    us;
  Table.print table;
  if !mismatches <> [] then begin
    List.iter
      (Printf.eprintf "[bench] ablation-greedy: arrangements differ at %s\n")
      (List.rev !mismatches);
    exit 1
  end

(* Prune-GEACC's two ingredients — the Lemma 6 bound and the Greedy warm
   start — toggled independently. *)
let ablation_prune profile =
  let n_events, n_users, cv, cu = fig6_settings profile in
  let cfg =
    {
      Synthetic.default with
      Synthetic.n_events;
      n_users;
      event_capacity = Synthetic.Cap_uniform cv;
      user_capacity = Synthetic.Cap_uniform cu;
    }
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation: exact-search ingredients (|V|=%d, |U|=%d); mean of 3 \
            seeds" n_events n_users)
      ~headers:[ "variant"; "invocations"; "complete"; "time (ms)" ]
  in
  let variants =
    [
      ("bound + warm start + user-side bound", `Tightened);
      ("bound + warm start (Prune-GEACC)", `Config (true, true));
      ("bound only", `Config (true, false));
      ("no bound (exhaustive)", `Config (false, false));
    ]
  in
  List.iter
    (fun (label, variant) ->
      Printf.eprintf "[bench] ablation-prune: %s\n%!" label;
      let inv = Stats.create ()
      and complete = Stats.create ()
      and time = Stats.create () in
      for seed = 1 to 3 do
        let t = Synthetic.generate ~seed cfg in
        let (_, st), secs =
          Measure.time (fun () ->
              match variant with
              | `Tightened ->
                  Exact.solve ~tighten:true ~budget:fig6_exhaustive_budget t
              | `Config (pruning, warm_start) ->
                  Exact.solve ~pruning ~warm_start
                    ~budget:fig6_exhaustive_budget t)
        in
        Stats.add inv (float_of_int st.Exact.invocations);
        Stats.add complete (float_of_int st.Exact.complete_searches);
        Stats.add time (secs *. 1000.)
      done;
      Table.add_row table
        [
          label;
          Printf.sprintf "%.0f" (Stats.mean inv);
          Printf.sprintf "%.0f" (Stats.mean complete);
          Printf.sprintf "%.1f" (Stats.mean time);
        ])
    variants;
  Table.print table

(* Local-search post-optimisation: how much of the greedy-vs-optimal gap
   the replace moves recover (extension beyond the paper). *)
let ablation_local_search profile =
  let trials = Stdlib.max profile.trials 10 in
  let cfg =
    {
      Synthetic.default with
      Synthetic.n_events = 5;
      n_users = 12;
      event_capacity = Synthetic.Cap_uniform 5;
      user_capacity = Synthetic.Cap_uniform 2;
    }
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation: local-search post-optimisation (|V|=5, |U|=12, %d \
            seeds)" trials)
      ~headers:
        [ "|CF| ratio"; "Greedy/Opt"; "Greedy+LS/Opt"; "gap closed (%)" ]
  in
  List.iter
    (fun r ->
      let g = Stats.create () and ls = Stats.create () and opt = Stats.create () in
      for seed = 1 to trials do
        let t =
          Synthetic.generate ~seed { cfg with Synthetic.conflict_ratio = r }
        in
        let o, st = Exact.solve ~tighten:true ~budget:exact_budget t in
        if not st.Exact.exhausted_budget then begin
          Stats.add g (Matching.maxsum (Greedy.solve t));
          Stats.add ls (Matching.maxsum (Local_search.solve t));
          Stats.add opt (Matching.maxsum o)
        end
      done;
      let g = Stats.mean g and ls = Stats.mean ls and opt = Stats.mean opt in
      let gap_closed =
        if opt -. g < 1e-9 then 100. else 100. *. (ls -. g) /. (opt -. g)
      in
      Table.add_row table
        [
          Printf.sprintf "%.2f" r;
          Printf.sprintf "%.4f" (g /. opt);
          Printf.sprintf "%.4f" (ls /. opt);
          Printf.sprintf "%.1f" gap_closed;
        ])
    [ 0.; 0.25; 0.5; 0.75; 1. ];
  Table.print table

(* Online arrivals vs the offline algorithms: the price of irrevocable,
   on-arrival decisions (extension beyond the paper). *)
let ablation_online profile =
  let trials = Stdlib.max profile.trials 10 in
  let cfg =
    {
      Synthetic.default with
      Synthetic.n_events = 5;
      n_users = 12;
      event_capacity = Synthetic.Cap_uniform 5;
      user_capacity = Synthetic.Cap_uniform 2;
    }
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation: online arrivals vs offline (|V|=5, |U|=12, %d seeds)"
           trials)
      ~headers:[ "|CF| ratio"; "Online/Opt"; "Greedy/Opt"; "Online/Greedy" ]
  in
  List.iter
    (fun r ->
      let online = Stats.create ()
      and greedy = Stats.create ()
      and opt = Stats.create () in
      for seed = 1 to trials do
        let t =
          Synthetic.generate ~seed { cfg with Synthetic.conflict_ratio = r }
        in
        let o, st = Exact.solve ~tighten:true ~budget:exact_budget t in
        if not st.Exact.exhausted_budget then begin
          let rng = Rng.create ~seed in
          Stats.add online
            (Matching.maxsum (Online.solve_random_order ~rng t));
          Stats.add greedy (Matching.maxsum (Greedy.solve t));
          Stats.add opt (Matching.maxsum o)
        end
      done;
      let online = Stats.mean online
      and greedy = Stats.mean greedy
      and opt = Stats.mean opt in
      Table.add_row table
        [
          Printf.sprintf "%.2f" r;
          Printf.sprintf "%.4f" (online /. opt);
          Printf.sprintf "%.4f" (greedy /. opt);
          Printf.sprintf "%.4f" (online /. greedy);
        ])
    [ 0.; 0.25; 0.5; 0.75; 1. ];
  Table.print table

(* -- Similarity-pruned flow network (CSR core) -------------------------- *)

(* Machine-readable profile of MinCostFlow-GEACC on the similarity-pruned
   network, written to BENCH_sparse.json: per cell, the instance's measured
   zero-similarity pair fraction, the (v,u) arcs emitted against the
   |V|·|U| pairs of the paper's construction, best-of-3 wall time, peak
   live heap and MaxSum. Equation-1 similarity virtually never produces
   zero-sim pairs (its cutoff is the attribute-space diameter), so the
   *-tight cells re-wrap the same entities under a euclidean profile with
   a shorter range — there distances beyond the cutoff underflow to
   similarity exactly 0 and the builder visibly prunes (the Zipf cell
   clears 50% zero-sim because Zipf mass piles up near 0 while the tail
   sits far away). *)

let sparse_cell ~name instance =
  let n_v = Instance.n_events instance
  and n_u = Instance.n_users instance in
  let zero = ref 0 in
  for v = 0 to n_v - 1 do
    for u = 0 to n_u - 1 do
      if not (Instance.sim instance ~v ~u > 0.) then incr zero
    done
  done;
  let zero_frac = float_of_int !zero /. float_of_int (n_v * n_u) in
  (* Best-of-3 wall time: the solves are CPU-bound and side-effect free,
     so the minimum is the least-noise estimator — single-shot timings on
     shared CI runners swing by 2x. *)
  let best = ref infinity and result = ref None in
  for _ = 1 to 3 do
    let (m, stats), wall_s =
      Measure.time (fun () -> Mincostflow.solve_with_stats instance)
    in
    if wall_s < !best then begin
      best := wall_s;
      result := Some (m, stats)
    end
  done;
  let m, stats = Option.get !result in
  let _, peak_bytes, `Exact =
    Measure.run_with_peak (fun () -> Mincostflow.solve_with_stats instance)
  in
  let maxsum = Matching.maxsum m in
  Printf.eprintf
    "[bench] sparse-flow %s: zero-sim %.0f%%, arcs %d of %d pairs, %.1f ms\n%!"
    name (100. *. zero_frac) stats.Mincostflow.pair_arcs
    stats.Mincostflow.dense_pairs (!best *. 1000.);
  Printf.sprintf
    {|    {
      "name": "%s",
      "n_events": %d,
      "n_users": %d,
      "dim": %d,
      "zero_sim_fraction": %.6f,
      "dense_pairs": %d,
      "pair_arcs": %d,
      "wall_s": %.6f,
      "peak_bytes": %d,
      "maxsum": %.17g
    }|}
    name n_v n_u (Instance.dim instance) zero_frac
    stats.Mincostflow.dense_pairs stats.Mincostflow.pair_arcs !best
    peak_bytes maxsum

let sparse_flow profile =
  let n_users = if profile.full then 1000 else 400 in
  let base = { Synthetic.default with Synthetic.n_users } in
  (* [denom] sets the re-wrapped profile's range to T/denom; in d = 20 the
     pairwise distances concentrate sharply, so each attribute model needs
     its own denominator to land between the degenerate 0% and 100%
     extremes (tuned empirically on seed 1). *)
  let tight denom instance =
    Instance.create
      ~sim:
        (Similarity.euclidean ~dim:(Instance.dim instance)
           ~range:(base.Synthetic.t_max /. denom))
      ~events:(Instance.events instance)
      ~users:(Instance.users instance)
      ~conflicts:(Instance.conflicts instance)
      ()
  in
  let cells =
    [
      ("uniform-eq1", Synthetic.generate ~seed:1 base);
      ( "uniform-tight",
        tight 2.4 (Synthetic.generate ~seed:1 base) );
      ( "normal-tight",
        tight 2.4
          (Synthetic.generate ~seed:1
             { base with Synthetic.attrs = Synthetic.Attr_normal_mixture }) );
      ( "zipf-tight",
        tight 12.
          (Synthetic.generate ~seed:1
             { base with Synthetic.attrs = Synthetic.Attr_zipf 1.3 }) );
    ]
  in
  let rows =
    List.map (fun (name, instance) -> sparse_cell ~name instance) cells
  in
  let oc = open_out "BENCH_sparse.json" in
  Printf.fprintf oc
    {|{
  "experiment": "sparse-flow",
  "profile": "%s",
  "cells": [
%s
  ]
}
|}
    (if profile.full then "full" else "quick")
    (String.concat ",\n" rows);
  close_out oc;
  Printf.eprintf "[bench] sparse-flow: wrote BENCH_sparse.json\n%!"

(* -- Serving loop: replay latency and journal overhead ------------------ *)

(* Machine-readable profile of `geacc serve` on a generated Meetup trace,
   written to BENCH_serve.json. Three cells: incremental repair (the
   default), full replay every batch, and incremental without journal
   fsyncs. Per cell, total wall time, batch-latency p50/p99, journal time,
   and the final digest/MaxSum — the incremental and full cells must agree
   bit-for-bit (the crash-safety tests enforce the same invariant; here it
   guards the measurement's meaning). The headline ratio is full/incremental
   mean batch latency: the dirty-suffix repair must not regress to
   re-serving everyone. *)

module Serve_loop = Geacc_serve.Serve_loop
module Trace_gen = Geacc_datagen.Trace_gen

let serve_temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "geacc_bench_serve_%d_%d" (Unix.getpid ()) !counter)
    in
    Unix.mkdir path 0o700;
    path

let rec serve_rm_rf path =
  if Sys.is_directory path then begin
    Array.iter
      (fun e -> serve_rm_rf (Filename.concat path e))
      (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(Stdlib.min (n - 1) (int_of_float (p *. float_of_int n)))

let serve_cell ~name ~mode ~fsync trace =
  let dir = serve_temp_dir () in
  Fun.protect
    ~finally:(fun () -> serve_rm_rf dir)
    (fun () ->
      let config =
        { (Serve_loop.default ~state_dir:dir) with Serve_loop.mode; fsync }
      in
      let out = open_out Filename.null in
      let result, wall_s =
        Fun.protect
          ~finally:(fun () -> close_out out)
          (fun () -> Measure.time (fun () -> Serve_loop.run config ~out trace))
      in
      match result with
      | Error e ->
          Printf.eprintf "[bench] serve-replay %s: FAILED %s\n%!" name
            (Geacc_robust.Error.to_string e);
          exit 1
      | Ok report ->
          let lat = Array.of_list report.Serve_loop.latencies_s in
          Array.sort compare lat;
          let mean =
            if Array.length lat = 0 then nan
            else Array.fold_left ( +. ) 0. lat /. float_of_int (Array.length lat)
          in
          Printf.eprintf
            "[bench] serve-replay %s: %d batches, mean %.3f ms, p99 %.3f ms, \
             journal %.1f ms\n\
             %!"
            name report.Serve_loop.applied (mean *. 1000.)
            (percentile lat 0.99 *. 1000.)
            (report.Serve_loop.journal_s *. 1000.);
          ( report,
            mean,
            Printf.sprintf
              {|    {
      "name": "%s",
      "wall_s": %.6f,
      "batches": %d,
      "applied": %d,
      "full_replays": %d,
      "snapshots": %d,
      "latency_mean_s": %.6f,
      "latency_p50_s": %.6f,
      "latency_p99_s": %.6f,
      "journal_s": %.6f,
      "maxsum": %.17g,
      "digest": "%s"
    }|}
              name wall_s report.Serve_loop.batches report.Serve_loop.applied
              report.Serve_loop.full_replays report.Serve_loop.snapshots mean
              (percentile lat 0.5) (percentile lat 0.99)
              report.Serve_loop.journal_s report.Serve_loop.maxsum
              report.Serve_loop.digest ))

let serve_replay profile =
  let city =
    if profile.full then Meetup.vancouver else Meetup.auckland
  in
  let trace = Trace_gen.generate ~seed:1 ~city () in
  Printf.eprintf "[bench] serve-replay: %s trace, %d batches\n%!"
    city.Meetup.name
    (List.length trace.Geacc_serve.Trace.batches);
  let inc, inc_mean, inc_row =
    serve_cell ~name:"incremental" ~mode:Serve_loop.Incremental ~fsync:true
      trace
  in
  let full, full_mean, full_row =
    serve_cell ~name:"full" ~mode:Serve_loop.Full ~fsync:true trace
  in
  let nofsync, _, nofsync_row =
    serve_cell ~name:"incremental-nofsync" ~mode:Serve_loop.Incremental
      ~fsync:false trace
  in
  let bits_equal =
    Int64.bits_of_float inc.Serve_loop.maxsum
    = Int64.bits_of_float full.Serve_loop.maxsum
    && inc.Serve_loop.digest = full.Serve_loop.digest
  in
  if not bits_equal then begin
    Printf.eprintf
      "[bench] serve-replay: INCREMENTAL/FULL DIVERGED (%s vs %s)\n%!"
      inc.Serve_loop.digest full.Serve_loop.digest;
    exit 1
  end;
  let speedup = full_mean /. Float.max inc_mean 1e-9 in
  let fsync_overhead_s =
    inc.Serve_loop.journal_s -. nofsync.Serve_loop.journal_s
  in
  Printf.eprintf
    "[bench] serve-replay: incremental %.2fx faster per batch, fsync \
     overhead %.1f ms\n\
     %!"
    speedup (fsync_overhead_s *. 1000.);
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    {|{
  "experiment": "serve-replay",
  "profile": "%s",
  "city": "%s",
  "incremental_speedup": %.4f,
  "fsync_overhead_s": %.6f,
  "digests_equal": %b,
  "cells": [
%s
  ]
}
|}
    (if profile.full then "full" else "quick")
    city.Meetup.name speedup fsync_overhead_s bits_equal
    (String.concat ",\n" [ inc_row; full_row; nofsync_row ]);
  close_out oc;
  Printf.eprintf "[bench] serve-replay: wrote BENCH_serve.json\n%!"

(* -- registry ----------------------------------------------------------- *)

let all : (string * string * (profile -> unit)) list =
  [
    ("fig3-v", "Fig 3 col 1: MaxSum/time/memory vs |V|", fig3_v);
    ("fig3-u", "Fig 3 col 2: MaxSum/time/memory vs |U|", fig3_u);
    ("fig3-d", "Fig 3 col 3: MaxSum/time/memory vs d", fig3_d);
    ("fig3-cf", "Fig 3 col 4: MaxSum/time/memory vs |CF|", fig3_cf);
    ("fig4-cv", "Fig 4 col 1: MaxSum/time/memory vs max c_v", fig4_cv);
    ("fig4-cu", "Fig 4 col 2: MaxSum/time/memory vs max c_u", fig4_cu);
    ("fig4-dist", "Fig 4 col 3: Zipf/Normal distributions", fig4_dist);
    ("fig4-real", "Fig 4 col 4: simulated Meetup (Auckland)", fig4_real);
    ("fig5-scal", "Fig 5a,b: Greedy-GEACC scalability", fig5_scalability);
    ("fig5-approx", "Fig 5c,d: approximation quality vs exact", fig5_approx);
    ("fig6-depth", "Fig 6a: average pruned depth", fig6_prune_depth);
    ("fig6-search", "Fig 6b-d: Prune vs exhaustive search", fig6_vs_exhaustive);
    ( "ablation-greedy",
      "Ablation (gate): Greedy-GEACC vs sort-all-pairs greedy",
      ablation_greedy );
    ( "ablation-prune",
      "Ablation: Lemma 6 bound and warm start toggled",
      ablation_prune );
    ( "ablation-ls",
      "Ablation: local-search post-optimisation of Greedy",
      ablation_local_search );
    ( "ablation-online",
      "Ablation: online arrivals vs offline algorithms",
      ablation_online );
    ( "sparse-flow",
      "Similarity-pruned flow network: arcs/time/memory, BENCH_sparse.json",
      sparse_flow );
    ( "serve-replay",
      "Serving loop: batch latency, journal overhead, BENCH_serve.json",
      serve_replay );
  ]
