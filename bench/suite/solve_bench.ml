(* The solve workloads: cold MinCostFlow-GEACC solves on the paper's
   TABLE III default (mcf-paper) and cold Greedy-GEACC solves at the
   Fig. 5a scale (greedy-scale). One closed-loop client solves the
   run's instances round-robin until the run's time is up. Instance 0 is
   the reference instance ({!Common.input_seed}); [maxsum] and [heap_mb]
   are measured on it. *)

open Geacc_core
open Common
module Synthetic = Geacc_datagen.Synthetic
module Graph = Geacc_flow.Graph
module Mcf = Geacc_flow.Mcf
module Shortest_path = Geacc_flow.Shortest_path
module Int_bucket_queue = Geacc_pqueue.Int_bucket_queue
module Measure = Geacc_util.Measure
module Instance_io = Geacc_io.Instance_io

type algo = Mcf_paper | Greedy_scale

let config ~smoke = function
  | Mcf_paper ->
      if smoke then { Synthetic.default with n_events = 20; n_users = 200 }
      else Synthetic.default
  | Greedy_scale ->
      {
        Synthetic.default with
        n_users = (if smoke then 2000 else 10_000);
        event_capacity = Synthetic.Cap_uniform 200;
      }

let n_instances ~smoke = if smoke then 2 else 5

type outcome = { matching : Matching.t; stats : Mincostflow.stats option }

let solve algo inst =
  match algo with
  | Mcf_paper ->
      let m, st = Mincostflow.solve_with_stats inst in
      { matching = m; stats = Some st }
  | Greedy_scale -> { matching = Greedy.solve inst; stats = None }

(* Why an op failed, if it did. *)
let check ~wall o =
  match violation o.matching with
  | Some v -> Some ("invalid arrangement: " ^ v)
  | None -> (
      match o.stats with
      | Some st when st.Mincostflow.timed_out -> Some "solve timed out"
      | _ -> if wall > op_timeout_s then Some "solve over the time limit" else None)

(* Input generation plus one warm-up solve, [setup_reps] times. *)
let setup ctx algo =
  let cfg = config ~smoke:ctx.smoke algo and n = n_instances ~smoke:ctx.smoke in
  let once rep =
    let t0 = now () in
    let bases = Array.init n (fun k -> Synthetic.generate ~seed:(input_seed ctx k) cfg) in
    ignore (solve algo (cold bases.(rep mod n)) : outcome);
    (bases, now () -. t0)
  in
  let runs = List.init setup_reps once in
  (fst (List.hd runs), Array.of_list (List.map snd runs))

(* Every solve of one instance must return the same MaxSum, bit for bit;
   [reference] holds the first MaxSum seen per instance. *)
let same_maxsum g reference k m =
  let x = Matching.maxsum m in
  match reference.(k) with
  | None -> reference.(k) <- Some x
  | Some r ->
      if Int64.bits_of_float r <> Int64.bits_of_float x then
        fail g (Printf.sprintf "instance %d: MaxSum %h then %h" k r x)

(* Runs [op i k] for op index [i] on instance [k], round-robin, until the
   run's seconds are up — or exactly [smoke_ops] times in smoke mode. *)
let loop ctx n ~smoke_ops op =
  let deadline = now () +. ctx.seconds in
  let i = ref 0 in
  while if ctx.smoke then !i < smoke_ops else !i = 0 || now () < deadline do
    op !i (!i mod n);
    incr i
  done

(* Parsing the instance text, as a CLI solve does before it starts; a few
   parses per instance, since one takes only milliseconds. This runs
   first, on a small heap: after a few solves the heap a parse meets
   varies from run to run, and its time with it. *)
let load_reps = 5

let load_times ctx algo =
  let cfg = config ~smoke:ctx.smoke algo in
  Array.concat
    (List.init (n_instances ~smoke:ctx.smoke) (fun k ->
         let b = Synthetic.generate ~seed:(input_seed ctx k) cfg in
         let text = Instance_io.save_instance b in
         Array.init load_reps (fun _ ->
             Gc.full_major ();
             let inst, t = Measure.time (fun () -> Instance_io.load_instance text) in
             if Instance.n_users inst <> Instance.n_users b then nan else t)))

let run_untraced ctx algo =
  let loads = load_times ctx algo in
  let bases, setups = setup ctx algo in
  let n = Array.length bases in
  let g = gates () and reference = Array.make n None in
  let lat = ref [] and fallbacks = ref 0 in
  loop ctx n ~smoke_ops:(2 * n) (fun _ k ->
      let inst = cold bases.(k) in
      Gc.full_major ();
      let r, wall =
        Measure.time (fun () ->
            try Ok (solve algo inst) with e -> Error (Printexc.to_string e))
      in
      g.attempted <- g.attempted + 1;
      match r with
      | Error e -> fail g ("solve raised " ^ e)
      | Ok o -> (
          match check ~wall o with
          | Some e -> fail g e
          | None ->
              lat := wall :: !lat;
              same_maxsum g reference k o.matching;
              match o.stats with
              | Some st when st.Mincostflow.int_fallback -> incr fallbacks
              | _ -> ()));
  let lat = Array.of_list !lat in
  (* The peak working set of one more solve of the reference instance; the
     heap sampler slows the solve, so it runs apart from the timed ones. *)
  let _, peak, mode = Measure.run_with_peak (fun () -> solve algo (cold bases.(0))) in
  if mode <> `Exact then fail g "peak heap not measured in exact mode";
  if Array.exists Float.is_nan loads then fail g "instance text did not round-trip";
  result g
    ~values:
        [
          ("setup_s", Metric.median setups);
          ("op_p50_ms", 1e3 *. Metric.median lat);
          ("ops_per_s", float_of_int (Array.length lat) /. Metric.sum lat);
          ("maxsum", Option.value reference.(0) ~default:0.);
          ("heap_mb", float_of_int peak /. 1e6);
        ]
    ~info:
      [
        ("instances", Json.Num (float_of_int n));
        ("ops", Json.Num (float_of_int (Array.length lat)));
        ("op_p99_ms", Json.Num (1e3 *. Metric.quantile 0.99 lat));
        ("load_ms", Json.Num (1e3 *. Metric.median loads));
        ("setups_s", Json.Arr (Array.to_list (Array.map (fun t -> Json.Num t) setups)));
        ("int_fallbacks", Json.Num (float_of_int !fallbacks));
      ]

(* -- Traced run --------------------------------------------------------- *)

(* The calls [Mincostflow.solve_with_stats] makes before conflict
   resolution, each in its own span. *)
let mcf_replica inst =
  Spans.span "index.build" (fun () -> Instance.prepare_event_queries inst);
  let net = Spans.span "flow.build" (fun () -> Mincostflow.build_network inst) in
  let g = net.Mincostflow.graph in
  Spans.span "flow.csr" (fun () -> Graph.finalize_csr g);
  let io =
    Spans.span "flow.ssp" (fun () ->
        Mcf.solve_int g ~source:net.Mincostflow.source ~sink:net.Mincostflow.sink
          ~stop_below:Mincostflow.cost_scale ())
  in
  (net, io)

(* One Dijkstra pass over a freshly built network of [inst]. *)
let dijkstra_pass inst =
  let net = Mincostflow.build_network inst in
  let g = net.Mincostflow.graph in
  Graph.finalize_csr g;
  let nodes = Graph.node_count g in
  let pi = Array.make nodes 0
  and dist = Array.make nodes 0
  and parent_arc = Array.make nodes 0 in
  Spans.span "flow.dijkstra_pass" (fun () ->
      Shortest_path.dijkstra_int g ~source:net.Mincostflow.source ~pi ~dist
        ~parent_arc ~queue:(Int_bucket_queue.create ())
        ~stop_at:net.Mincostflow.sink ())

let greedy_replica inst =
  Spans.span "index.build" (fun () ->
      ignore (Instance.event_neighbor inst ~v:0 ~rank:1 : (int * float) option);
      ignore (Instance.user_neighbor inst ~u:0 ~rank:1 : (int * float) option));
  Spans.span "core.greedy" (fun () -> Greedy.solve inst)

let stats_agree (st : Mincostflow.stats) = function
  | Some io ->
      io.Mcf.iflow = st.Mincostflow.flow_value
      && Int64.bits_of_float
           (float_of_int io.Mcf.icost /. float_of_int Mincostflow.cost_scale)
         = Int64.bits_of_float st.Mincostflow.flow_cost
  | None -> st.Mincostflow.int_fallback

let run_traced ctx algo =
  let bases, _ = setup ctx algo in
  let n = Array.length bases in
  let g = gates () and reference = Array.make n None in
  let traced = ref 0. and untraced = ref 0. and real = ref 0. in
  let counts = Hashtbl.create 8 in
  let add key x =
    Hashtbl.replace counts key (x +. Option.value (Hashtbl.find_opt counts key) ~default:0.)
  in
  (* Greedy's candidate lists, for the conflict probe, per instance. *)
  let cands = Array.make n None in
  Spans.reset ();
  loop ctx n ~smoke_ops:n (fun i k ->
      g.attempted <- g.attempted + 1;
      let traced_pass f =
        Gc.full_major ();
        Spans.set_enabled true;
        let x, t = Measure.time (fun () -> Spans.op ~op_id:i "op" f) in
        Spans.set_enabled false;
        traced := !traced +. t;
        x
      and untraced_pass f =
        Gc.full_major ();
        let x, t = Measure.time f in
        untraced := !untraced +. t;
        x
      in
      match algo with
      | Mcf_paper ->
          let a = cold bases.(k) in
          let _, io = traced_pass (fun () -> mcf_replica a) in
          Spans.set_enabled true;
          let c =
            Spans.op ~op_id:i "probe" (fun () ->
                let c = Spans.span "index.query" (fun () -> candidates a) in
                dijkstra_pass a;
                c)
          in
          add "index.candidates"
            (float_of_int (Array.fold_left (fun s r -> s + Array.length r) 0 c));
          Spans.set_enabled false;
          ignore (untraced_pass (fun () -> mcf_replica (cold bases.(k))));
          let b = cold bases.(k) in
          Gc.full_major ();
          let (m, st), wall = Measure.time (fun () -> Mincostflow.solve_with_stats b) in
          real := !real +. wall;
          (match check ~wall { matching = m; stats = Some st } with
          | Some e -> fail g e
          | None -> same_maxsum g reference k m);
          if not (stats_agree st io) then
            fail g "SSP flow/cost differ from the solver's stats";
          let ev, us = Instance.neighbor_work b in
          add "index.streams_event" (float_of_int ev);
          add "index.streams_user" (float_of_int us);
          add "flow.arcs" (float_of_int st.Mincostflow.pair_arcs);
          add "flow.augmentations" (float_of_int st.Mincostflow.augmentations);
          add "core.dropped_pairs" (float_of_int st.Mincostflow.dropped_pairs);
          if st.Mincostflow.int_fallback then add "core.int_fallback" 1.;
          add "core.matched_pairs" (float_of_int (Matching.size m));
          add "core.conflict_probe_ns" (conflict_probe_ns m c)
      | Greedy_scale ->
          let a = cold bases.(k) in
          let m = traced_pass (fun () -> greedy_replica a) in
          let a' = cold bases.(k) in
          let m' = untraced_pass (fun () -> greedy_replica a') in
          (match (violation m, violation m') with
          | Some e, _ | _, Some e -> fail g ("invalid arrangement: " ^ e)
          | None, None ->
              same_maxsum g reference k m;
              same_maxsum g reference k m');
          let ev, us = Instance.neighbor_work a' in
          add "index.streams_event" (float_of_int ev);
          add "index.streams_user" (float_of_int us);
          add "core.matched_pairs" (float_of_int (Matching.size m));
          if cands.(k) = None then cands.(k) <- Some (candidates (cold bases.(k)));
          Option.iter (fun c -> add "core.conflict_probe_ns" (conflict_probe_ns m c)) cands.(k));
  let nops = float_of_int g.attempted in
  let self = Spans.self_times () in
  let wall = Spans.wall_of "op" in
  let share name = Metric.pct (self name) wall in
  let layer_values =
    match algo with
    | Mcf_paper ->
        [
          (* The candidate queries run inside [build_network]; the separate
             pass measures them. *)
          ("index.query_pct", share "index.query");
          ("flow.emit_pct", Metric.pct (self "flow.build" -. self "index.query") wall);
          ("flow.csr_pct", share "flow.csr");
          ("flow.ssp_pct", share "flow.ssp");
          ("flow.dijkstra_pass_pct", share "flow.dijkstra_pass");
          (* Conflict resolution has no entry point of its own: it is what
             the real solve takes beyond the untraced replica, a difference
             of two ~1 s walls, so it carries their noise. *)
          ("core.resolve_pct", Metric.pct (!real -. !untraced) !real);
        ]
    | Greedy_scale -> [ ("core.greedy_pct", share "core.greedy") ]
  in
  let trace_values =
    [
      ("trace.op_ms", 1e3 *. wall /. nops);
      ("trace.residual_pct", share "op");
      ("trace.overhead_pct", Metric.pct (!traced -. !untraced) !untraced);
      ("index.build_pct", share "index.build");
    ]
  in
  result g
    ~values:
      (trace_values @ layer_values
      @ Hashtbl.fold (fun k v acc -> (k, v /. nops) :: acc) counts [])
    ~info:[ ("instances", Json.Num (float_of_int n)); ("ops", Json.Num nops) ]

let run ctx algo = if ctx.traced then run_traced ctx algo else run_untraced ctx algo
