(* The serve workloads: `geacc serve` replaying generated Meetup traces
   of the paper's Singapore city (TABLE II: 87 events, 1500 users), one
   arrival per batch, each into a fresh state directory with the default
   configuration (incremental repair, fsync on, a snapshot every 32
   journal appends). One closed-loop client: the next batch goes in when
   the previous one is acknowledged. A run replays several traces, so one
   trace's quirks do not set the run's numbers; trace 0 is the reference
   trace ({!Common.input_seed}), on which [maxsum] and [heap_mb] are
   measured. serve-arrivals has the trace generator's default churn (0.1
   departures per batch); serve-churn puts a departure in every batch. *)

open Geacc_core
open Common
module Serve_loop = Geacc_serve.Serve_loop
module Serve_state = Geacc_serve.Serve_state
module Trace = Geacc_serve.Trace
module Journal = Geacc_serve.Journal
module Snapshot = Geacc_serve.Snapshot
module Admission = Geacc_serve.Admission
module Trace_gen = Geacc_datagen.Trace_gen
module Meetup = Geacc_datagen.Meetup
module Budget = Geacc_robust.Budget
module Error = Geacc_robust.Error
module Measure = Geacc_util.Measure

type kind = Arrivals | Churn

let churn = function Arrivals -> 0.1 | Churn -> 1.0

let n_traces ~smoke = if smoke then 2 else 5

(* Batches kept of each trace: short enough that two passes over all the
   traces fit in a run, so every trace is replayed at least twice. *)
let trace_batches ~smoke = if smoke then 64 else 512

(* Traces the traced run replays (three times each). *)
let n_traced ~smoke = if smoke then 2 else 3

let warm_batches = 48

(* Recoveries timed per trace; [load_ms] is the median over all traces. *)
let recover_reps = 3

(* Serve_loop's state-directory layout. *)
let journal_path dir = Filename.concat dir "journal.wal"
let snapshot_path dir = Filename.concat dir "snapshot.geacc"

(* Each trace is cut to a whole number of snapshot intervals, so the run
   ends on a snapshot with an empty journal behind it: recovery then loads
   exactly the final state, the same work whatever the seed, instead of
   re-serving a seed-dependent journal tail. *)
let cut ~limit batches =
  let every = (Serve_loop.default ~state_dir:"").Serve_loop.snapshot_every in
  let n = min limit (List.length batches) in
  let keep = if n < every then n else n - (n mod every) in
  List.filteri (fun i _ -> i < keep) batches

let make_trace ctx kind k =
  let city = if ctx.smoke then Meetup.auckland else Meetup.singapore in
  let t =
    Trace_gen.generate ~seed:(input_seed ctx k) ~city ~arrivals_per_batch:1
      ~churn:(churn kind) ()
  in
  { t with Trace.batches = cut ~limit:(trace_batches ~smoke:ctx.smoke) t.Trace.batches }

let prefix n (t : Trace.t) =
  { t with Trace.batches = List.filteri (fun i _ -> i < n) t.Trace.batches }

(* One [Serve_loop.run] into [dir], its progress lines going to a log file
   beside the state. *)
let serve ?(mode = Serve_loop.Incremental) dir trace =
  let config = { (Serve_loop.default ~state_dir:dir) with Serve_loop.mode } in
  let oc = open_out (Filename.concat dir "serve.log") in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Measure.time (fun () ->
          match Serve_loop.run config ~out:oc trace with
          | Ok r -> Ok r
          | Error e -> Error (Error.to_string e)
          | exception e -> Error (Printexc.to_string e)))

let recover dir trace =
  Gc.full_major ();
  serve dir { trace with Trace.batches = [] }

(* Trace generation plus a warm-up replay of the first trace's first
   batches, [setup_reps] times. *)
let setup ctx kind =
  let once () =
    let t0 = now () in
    let traces = Array.init (n_traces ~smoke:ctx.smoke) (make_trace ctx kind) in
    with_dir (fun dir -> ignore (serve dir (prefix warm_batches traces.(0))));
    (traces, now () -. t0)
  in
  let runs = List.init setup_reps (fun _ -> once ()) in
  (fst (List.hd runs), Array.of_list (List.map snd runs))

(* Accounts one replay: every batch is attempted; one that errors,
   degrades or is shed has failed. *)
let account g what = function
  | Error e ->
      g.attempted <- g.attempted + 1;
      fail g (what ^ ": " ^ e);
      None
  | Ok (r : Serve_loop.report) ->
      g.attempted <- g.attempted + r.Serve_loop.batches;
      let bad = r.Serve_loop.errors + r.Serve_loop.degraded_batches + r.Serve_loop.shed in
      g.failed <- g.failed + bad;
      if Serve_loop.exit_status r <> 0 || bad > 0 then
        note g (Printf.sprintf "%s: exit status %d" what (Serve_loop.exit_status r));
      Some r

let file_mb path =
  try float_of_int (Unix.stat path).Unix.st_size /. 1e6 with Unix.Unix_error _ -> 0.

type replay = { dir : string; digest : string; maxsum : float }

let run_untraced ctx kind =
  let traces, setups = setup ctx kind in
  let n = Array.length traces in
  let g = gates () in
  let lat = ref [] and walls = ref [] and admitted = ref 0 in
  (* The latest replay of each trace; its directory is kept for recovery. *)
  let last : replay option array = Array.make n None in
  let start = now () and passes = ref 0 and pass_wall = ref 0. in
  let more () =
    !passes < 2 || ((not ctx.smoke) && now () -. start +. !pass_wall <= ctx.seconds)
  in
  Fun.protect
    ~finally:(fun () -> Array.iter (Option.iter (fun r -> rm_rf r.dir)) last)
    (fun () ->
      (* Whole passes over every trace, so each weighs the same. *)
      while more () do
        let t0 = now () in
        Array.iteri
          (fun k trace ->
            let prev = last.(k) in
            Option.iter (fun r -> rm_rf r.dir) prev;
            last.(k) <- None;
            let dir = fresh_dir () in
            Gc.full_major ();
            let r, wall = serve dir trace in
            match account g "replay" r with
            | None -> rm_rf dir
            | Some r ->
                lat := List.rev_append r.Serve_loop.latencies_s !lat;
                walls := wall :: !walls;
                admitted := !admitted + r.Serve_loop.admitted;
                let digest = r.Serve_loop.digest in
                (match prev with
                | Some p when p.digest <> digest ->
                    note g "replays of one trace ended on different digests"
                | _ -> ());
                last.(k) <- Some { dir; digest; maxsum = r.Serve_loop.maxsum })
          traces;
        pass_wall := now () -. t0;
        incr passes
      done;
      let loads = ref [] in
      Array.iteri
        (fun k trace ->
          Option.iter
            (fun r ->
              for _ = 1 to recover_reps do
                let rr, wall = recover r.dir trace in
                match account g "recovery" rr with
                | Some rr when rr.Serve_loop.digest <> r.digest ->
                    note g "recovered digest differs from the final digest"
                | Some _ -> loads := wall :: !loads
                | None -> ()
              done)
            last.(k))
        traces;
      (* The reference trace's final arrangement, and the memory its
         recovered state holds. *)
      let maxsum, heap =
        match last.(0) with
        | None -> (0., 0.)
        | Some r -> (
            match Measure.run (fun () -> Snapshot.load ~path:(snapshot_path r.dir)) with
            | Ok _, sample -> (r.maxsum, float_of_int sample.Measure.live_bytes)
            | Error e, _ ->
                note g ("snapshot: " ^ Error.to_string e);
                (r.maxsum, 0.))
      in
      let lat = Array.of_list !lat in
      result g
        ~values:
          [
            ("setup_s", Metric.median setups);
            ("op_p50_ms", 1e3 *. Metric.median lat);
            ("ops_per_s", float_of_int !admitted /. Metric.sum (Array.of_list !walls));
            ("maxsum", maxsum);
            ("heap_mb", heap /. 1e6);
          ]
        ~info:
          [
            ("traces", Json.Num (float_of_int n));
            ("passes", Json.Num (float_of_int !passes));
            ("ops", Json.Num (float_of_int (Array.length lat)));
            ("op_p99_ms", Json.Num (1e3 *. Metric.quantile 0.99 lat));
            ("load_ms", Json.Num (1e3 *. Metric.median (Array.of_list !loads)));
            ("recoveries", Json.Num (float_of_int (List.length !loads)));
            ("setups_s", Json.Arr (Array.to_list (Array.map (fun t -> Json.Num t) setups)));
          ])

(* -- Traced run --------------------------------------------------------- *)

(* The serve replica: [Serve_loop.run]'s steps on a fresh state directory,
   in its order, each call in a span. One op per timestamp group. It picks
   the full replay where [Serve_loop]'s repair chain does (a dirty suffix
   of at least [dirty_threshold] of the users), and must end on the same
   digest as the loop. *)

type replica = {
  state : Serve_state.t;
  last : Matching.t option;  (* the last committed repair *)
  digest : string;
  admitted : int;
  rebuilds : int;
  users_replayed : int;
  users_changed : int;
  full_replays : int;
  snapshots : int;
  streams : int * int;
}

(* Users at or above [from] whose pairs differ between two arrangements. *)
let changed_users ~from before after =
  let by_user pairs =
    let t = Hashtbl.create 64 in
    List.iter
      (fun (v, u) ->
        if u >= from then
          Hashtbl.replace t u (v :: Option.value (Hashtbl.find_opt t u) ~default:[]))
      pairs;
    t
  in
  let b = by_user before and a = by_user after in
  let differs t1 t2 =
    Hashtbl.fold
      (fun u vs n -> if Hashtbl.find_opt t2 u = Some vs then n else n + 1)
      t1 0
  in
  (* A user present on both sides with equal pairs counts in neither. *)
  let only_after = Hashtbl.fold (fun u _ n -> if Hashtbl.mem b u then n else n + 1) a 0 in
  differs b a + only_after

let run_replica g (c : Serve_loop.config) (trace : Trace.t) =
  let state = Serve_state.create ~sim:trace.Trace.sim in
  let journal =
    Journal.open_for_append ~fsync:c.Serve_loop.fsync
      ~path:(journal_path c.Serve_loop.state_dir) ()
  in
  let journaled = ref 0 and since_snapshot = ref 0 in
  let admitted = ref 0 and rebuilds = ref 0 and replayed = ref 0 in
  let changed = ref 0 and full_replays = ref 0 and snapshots = ref 0 in
  let streams_e = ref 0 and streams_u = ref 0 in
  let current = ref None and last = ref None in
  let retire inst =
    let e, u = Instance.neighbor_work inst in
    streams_e := !streams_e + e;
    streams_u := !streams_u + u
  in
  let serve_batch (b : Trace.batch) =
    Spans.span "serve.journal" (fun () ->
        Journal.append journal ~seq:b.Trace.seq ~payload:(Trace.batch_to_string b));
    journaled := b.Trace.seq;
    incr since_snapshot;
    let repaired =
      match Spans.span "serve.apply" (fun () -> Serve_state.apply_batch state b) with
      | Error e ->
          fail g ("replica: " ^ Error.to_string e);
          None
      | Ok () ->
          (match Spans.span "serve.instance" (fun () -> Serve_state.instance state) with
          | Some inst when not (Option.fold ~none:false ~some:(( == ) inst) !current) ->
              incr rebuilds;
              Option.iter retire !current;
              current := Some inst;
              if Instance.n_users inst > 0 then
                Spans.span "index.build" (fun () ->
                    ignore (Instance.user_neighbor inst ~u:0 ~rank:1 : (int * float) option))
          | _ -> ());
          let n = Serve_state.n_users state in
          let from = Serve_state.dirty_from state in
          let full =
            n > 0 && float_of_int (n - from) >= c.Serve_loop.dirty_threshold *. float_of_int n
          in
          let r =
            Spans.span "serve.repair" (fun () ->
                Serve_state.repair ?from:(if full then Some 0 else None) state
                  ~deadline:Budget.unlimited)
          in
          if not r.Serve_state.complete then
            fail g "replica: repair incomplete without a deadline";
          let before = Serve_state.pairs state in
          Spans.span "serve.commit" (fun () -> Serve_state.commit state r);
          if r.Serve_state.replayed_from = 0 && n > 0 then incr full_replays;
          last := r.Serve_state.matching;
          (* What the loop's acknowledgement and stats lines compute. *)
          Spans.span "serve.ack" (fun () ->
              ignore (List.length (Serve_state.pairs state) : int);
              ignore (Serve_state.maxsum state : float);
              if List.mem Trace.Stats b.Trace.ops then
                ignore (Serve_state.live_users state + Serve_state.live_events state : int));
          Some (r.Serve_state.replayed_from, n, before, Serve_state.pairs state)
    in
    if c.Serve_loop.snapshot_every > 0 && !since_snapshot >= c.Serve_loop.snapshot_every
    then begin
      Spans.span "serve.snapshot" (fun () ->
          Snapshot.save ~path:(snapshot_path c.Serve_loop.state_dir) state;
          Journal.truncate journal);
      since_snapshot := 0;
      incr snapshots
    end;
    repaired
  in
  List.iteri
    (fun gi group ->
      let fresh = List.filter (fun (b : Trace.batch) -> b.Trace.seq > !journaled) group in
      if fresh <> [] then begin
        let repairs =
          Spans.op ~op_id:gi "op" (fun () ->
              let plan =
                Spans.span "serve.admission" (fun () ->
                    Admission.plan ~queue_cap:c.Serve_loop.queue_cap ~degraded:false fresh)
              in
              List.filter_map
                (fun (b, decision) ->
                  match decision with
                  | Admission.Shed ->
                      fail g "replica: batch shed";
                      None
                  | Admission.Admit ->
                      incr admitted;
                      serve_batch b)
                plan)
        in
        (* Bookkeeping for the useful ratio, outside the op's spans. *)
        List.iter
          (fun (from, n, before, after) ->
            replayed := !replayed + (n - from);
            changed := !changed + changed_users ~from before after)
          repairs
      end)
    (Trace.groups trace.Trace.batches);
  Journal.close journal;
  Option.iter retire !current;
  {
    state;
    last = !last;
    digest = Serve_state.digest state;
    admitted = !admitted;
    rebuilds = !rebuilds;
    users_replayed = !replayed;
    users_changed = !changed;
    full_replays = !full_replays;
    snapshots = !snapshots;
    streams = (!streams_e, !streams_u);
  }

type traced = {
  rep : replica;
  traced_wall : float;  (* the replica, spans on *)
  loop_wall : float;  (* Serve_loop.run on the same trace *)
  recoveries : (float * float * float) list;  (* total, snapshot, journal *)
  snapshot_mb : float;
  probe_ns : float;
}

(* One trace, traced: the replica and the loop itself (the untraced twin,
   whose state directory then serves the recovery measurements), plus,
   when [full], a full-replay run — all must end on the same digest. *)
let trace_one g ~full trace =
  let rep, traced_wall =
    with_dir (fun dir ->
        Gc.full_major ();
        Spans.set_enabled true;
        let x = Measure.time (fun () -> run_replica g (Serve_loop.default ~state_dir:dir) trace) in
        Spans.set_enabled false;
        x)
  in
  g.attempted <- g.attempted + List.length trace.Trace.batches;
  let digest_of what r =
    Option.map (fun (r : Serve_loop.report) -> r.Serve_loop.digest) (account g what r)
  in
  with_dir (fun dir ->
      Gc.full_major ();
      let loop, loop_wall = serve dir trace in
      let loop_digest = digest_of "replay" loop in
      let full_digest =
        if not full then rep.digest
        else
          with_dir (fun fdir ->
              Gc.full_major ();
              Option.value ~default:""
                (digest_of "full replay" (fst (serve ~mode:Serve_loop.Full fdir trace))))
      in
      if loop_digest <> Some rep.digest || full_digest <> rep.digest then
        note g "replica, loop and full-replay digests differ";
      (* Recovery of the loop's final state, and its two load steps. *)
      let recoveries =
        List.init recover_reps (fun _ ->
            let r, wall = recover dir trace in
            (match account g "recovery" r with
            | Some r when Some r.Serve_loop.digest <> loop_digest ->
                note g "recovered digest differs from the final digest"
            | _ -> ());
            let s, ts = Measure.time (fun () -> Snapshot.load ~path:(snapshot_path dir)) in
            let j, tj = Measure.time (fun () -> Journal.recover ~path:(journal_path dir) ()) in
            if Result.is_error s || Result.is_error j then
              note g "snapshot or journal failed to load";
            (wall, ts, tj))
      in
      let probe =
        match (Serve_state.instance rep.state, rep.last) with
        | Some inst, Some m -> conflict_probe_ns m (candidates inst)
        | _ -> 0.
      in
      {
        rep;
        traced_wall;
        loop_wall;
        recoveries;
        snapshot_mb = file_mb (snapshot_path dir);
        probe_ns = probe;
      })

let run_traced ctx kind =
  let traces, _ = setup ctx kind in
  let g = gates () in
  Spans.reset ();
  let runs =
    List.mapi
      (fun k t -> trace_one g ~full:(k = 0) t)
      (List.filteri (fun k _ -> k < n_traced ~smoke:ctx.smoke) (Array.to_list traces))
  in
  let sum f = List.fold_left (fun acc t -> acc +. f t) 0. runs in
  let per_trace f = sum f /. float_of_int (List.length runs) in
  let count f = sum (fun t -> float_of_int (f t.rep)) in
  let recov f =
    Metric.median (Array.of_list (List.concat_map (fun t -> List.map f t.recoveries) runs))
  in
  let batches = Float.max 1. (count (fun r -> r.admitted)) in
  let self = Spans.self_times () in
  let ops_wall = Spans.wall_of "op" in
  let share name = Metric.pct (self name) ops_wall in
  let recovery = recov (fun (t, _, _) -> t) in
  let loop_wall = sum (fun t -> t.loop_wall) in
  let replayed = count (fun r -> r.users_replayed) in
  result g
    ~values:
      [
        ("trace.op_ms", 1e3 *. ops_wall /. batches);
        ("trace.residual_pct", share "op");
        ("trace.overhead_pct", Metric.pct (sum (fun t -> t.traced_wall) -. loop_wall) loop_wall);
        ("index.build_pct", share "index.build");
        ("index.streams_event", count (fun r -> fst r.streams) /. batches);
        ("index.streams_user", count (fun r -> snd r.streams) /. batches);
        ( "core.matched_pairs",
          per_trace (fun t -> float_of_int (List.length (Serve_state.pairs t.rep.state))) );
        ("core.conflict_probe_ns", per_trace (fun t -> t.probe_ns));
        ("serve.admission_pct", share "serve.admission");
        ("serve.journal_pct", share "serve.journal");
        ("serve.apply_pct", share "serve.apply");
        ("serve.instance_pct", share "serve.instance");
        ("serve.instance_rebuilds", per_trace (fun t -> float_of_int t.rep.rebuilds));
        ("serve.repair_pct", share "serve.repair");
        ("serve.users_replayed", replayed /. batches);
        ("serve.full_replays", per_trace (fun t -> float_of_int t.rep.full_replays));
        ( "serve.repair_useful_ratio",
          if replayed > 0. then count (fun r -> r.users_changed) /. replayed else 0. );
        ("serve.commit_pct", share "serve.commit");
        ("serve.ack_pct", share "serve.ack");
        ("serve.snapshot_pct", share "serve.snapshot");
        ("serve.snapshots", per_trace (fun t -> float_of_int t.rep.snapshots));
        ("serve.recover_snapshot_pct", Metric.pct (recov (fun (_, s, _) -> s)) recovery);
        ("serve.recover_journal_pct", Metric.pct (recov (fun (_, _, j) -> j)) recovery);
        ("serve.snapshot_mb", per_trace (fun t -> t.snapshot_mb));
        ("serve.n_users", per_trace (fun t -> float_of_int (Serve_state.n_users t.rep.state)));
        ("serve.live_users", per_trace (fun t -> float_of_int (Serve_state.live_users t.rep.state)));
      ]
    ~info:
      [
        ("traces", Json.Num (float_of_int (List.length runs)));
        ("ops", Json.Num batches);
      ]

let run ctx kind = if ctx.traced then run_traced ctx kind else run_untraced ctx kind
