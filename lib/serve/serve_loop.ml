open Geacc_core
module Audit = Geacc_check.Audit
module Budget = Geacc_robust.Budget
module Error = Geacc_robust.Error
module Fault = Geacc_robust.Fault

type mode = Incremental | Full

let mode_of_string = function
  | "incremental" -> Some Incremental
  | "full" -> Some Full
  | _ -> None

type config = {
  state_dir : string;
  mode : mode;
  dirty_threshold : float;
  batch_timeout_s : float;
  queue_cap : int;
  snapshot_every : int;
  fsync : bool;
}

let default ~state_dir =
  {
    state_dir;
    mode = Incremental;
    dirty_threshold = infinity;
    batch_timeout_s = 0.;
    queue_cap = 64;
    snapshot_every = 32;
    fsync = true;
  }

type report = {
  batches : int;
  admitted : int;
  shed : int;
  skipped : int;
  applied : int;
  errors : int;
  degraded_batches : int;
  full_replays : int;
  rewalked : int;
  snapshots : int;
  replayed : int;
  latencies_s : float list;
  digest : string;
  maxsum : float;
  seq : int;
}

let exit_status r =
  if r.errors > 0 then 1
  else if r.degraded_batches > 0 || r.shed > 0 then 3
  else 0

let journal_path c = Filename.concat c.state_dir "journal.wal"
let snapshot_path c = Filename.concat c.state_dir "snapshot.geacc"

let ensure_dir path =
  if not (Sys.file_exists path) then Unix.mkdir path 0o755

(* -- Repair ----------------------------------------------------------- *)

(* Adopts a repair. Under [GEACC_AUDIT] it also checks the result against
   a full [Online] replay of the current instance: the pairs of every user
   below the new cursor, and when the repair completed, all pairs and the
   MaxSum bits. This is the guard behind the propagation rules (DESIGN.md
   §14.3). *)
let commit state (r : Serve_state.repair) =
  Serve_state.commit state r;
  if Audit.enabled () then
    match Serve_state.instance state with
    | None -> ()
    | Some inst -> (
        match Online.solve inst with
        | Error e -> Audit.failf ~site:"serve.commit" "replay failed: %s" (Error.to_string e)
        | Ok m ->
            let cursor = Serve_state.cursor state in
            let below = List.filter (fun (_, u) -> u < cursor) in
            let want = below (Matching.pairs m)
            and got = below (Serve_state.pairs state) in
            if want <> got then
              Audit.failf ~site:"serve.commit"
                "seq %d: committed pairs below user %d differ from a full replay \
                 (%d vs %d pairs)"
                (Serve_state.seq state) cursor (List.length got) (List.length want);
            if r.Serve_state.complete then begin
              let bits x = Int64.bits_of_float x in
              let want = Matching.maxsum_recomputed m and got = Serve_state.maxsum state in
              if bits want <> bits got then
                Audit.failf ~site:"serve.commit"
                  "seq %d: committed MaxSum %h differs from a full replay's %h"
                  (Serve_state.seq state) got want
            end)

(* The serving arrangement is canonical (Online greedy in id order), and
   one call repairs it in place after each applied batch: propagation from
   the users the batch touched, or in [Full] mode a re-walk of every user.
   Its budget is the batch deadline, forced to expire on poll N by a
   [timeout.repair@N] plan. A cut repair leaves the rest pending for the
   next batch. An exception stops the process, and recovery decides. *)
let repair c state ~timeout_s =
  let from = match c.mode with Incremental -> None | Full -> Some 0 in
  let r =
    Serve_state.repair ?from state
      ~deadline:(Budget.for_stage ?timeout_s "repair")
  in
  Option.iter (Validate.audit_matching ~site:"serve.commit") r.Serve_state.matching;
  commit state r;
  r

(* -- Startup recovery ------------------------------------------------- *)

(* What recovery hands the loop, beyond the state itself: [replayed]
   journal records were applied (or re-rejected) beyond the snapshot;
   [journaled_seq] is the highest sequence number present in the journal —
   a rejected batch is journaled without advancing the applied seq, so the
   freshness floor must be the max of the two or a restart would append
   the same seq twice and poison the journal's monotonicity check;
   [backlog] is the total record count still in the journal, seeding the
   append-based snapshot cadence so a crash-restart cycle cannot let the
   journal grow without bound. *)

let recover c ~sim =
  ensure_dir c.state_dir;
  let state =
    if Snapshot.exists ~path:(snapshot_path c) then
      Snapshot.load ~path:(snapshot_path c)
    else Ok (Serve_state.create ~sim)
  in
  match state with
  | Error _ as e -> e
  | Ok state -> (
      match Journal.recover ~path:(journal_path c) () with
      | Error _ as e -> e
      | Ok { Journal.records; torn_bytes = _ } ->
          let journaled_seq =
            List.fold_left
              (fun acc (r : Journal.record) -> max acc r.Journal.seq)
              0 records
          in
          let backlog = List.length records in
          let rec replay n = function
            | [] -> Ok (state, n, journaled_seq, backlog)
            | (r : Journal.record) :: rest ->
                if r.Journal.seq <= Serve_state.seq state then replay n rest
                else (
                  match Trace.parse_batch r.Journal.payload with
                  | Error _ as e -> e
                  | Ok batch ->
                      (match Serve_state.apply_batch state batch with
                      | Error _ ->
                          (* The live run journaled this batch, then rejected
                             it; replay rejects it identically. *)
                          ()
                      | Ok () ->
                          ignore (repair c state ~timeout_s:None : Serve_state.repair));
                      replay (n + 1) rest)
          in
          replay 0 records)

(* -- The loop --------------------------------------------------------- *)

let run c ~out trace =
  match recover c ~sim:trace.Trace.sim with
  | Error _ as e -> e
  | Ok (state, replayed, journaled_seq, backlog) ->
      let p fmt = Printf.ksprintf (fun s -> output_string out (s ^ "\n")) fmt in
      p "start seq %d journal %d digest %s" (Serve_state.seq state) replayed
        (Serve_state.digest state);
      let journal =
        Journal.open_for_append ~fsync:c.fsync ~path:(journal_path c) ()
      in
      let timeout_s =
        if c.batch_timeout_s > 0. then Some c.batch_timeout_s else None
      in
      (* Set by a batch whose repair was cut, cleared by one that completes;
         while set, admission sheds every optional batch. *)
      let degraded = ref false in
      (* Freshness floor: a batch is new only if its seq is above every seq
         already in the journal, not just the applied seq — rejected batches
         journal without applying, and re-journaling one would break the
         journal's strict monotonicity on the next recovery. *)
      let journaled = ref (max journaled_seq (Serve_state.seq state)) in
      (* Snapshot cadence counts journal appends (seeded with the recovered
         backlog), so rejected and repair-failing batches still drive the
         journal toward its next truncation. *)
      let since_snapshot = ref backlog in
      let admitted = ref 0
      and shed = ref 0
      and skipped = ref 0
      and applied = ref 0
      and errors = ref 0
      and degraded_batches = ref 0
      and full_replays = ref 0
      and rewalked = ref 0
      and snapshots = ref 0 in
      let latencies = ref [] in
      let maybe_snapshot seq =
        if c.snapshot_every > 0 && !since_snapshot >= c.snapshot_every then begin
          Snapshot.save ~path:(snapshot_path c) state;
          Journal.truncate journal;
          since_snapshot := 0;
          Fault.inject "serve.crash";
          incr snapshots;
          p "snapshot %d" seq
        end
      in
      let stats_line seq =
        p "stats %d health %s users %d/%d events %d/%d conflicts %d pairs %d \
           maxsum %g"
          seq
          (if !degraded then "degraded" else "ok")
          (Serve_state.live_users state)
          (Serve_state.n_users state)
          (Serve_state.live_events state)
          (Serve_state.n_events state)
          (Serve_state.n_conflicts state)
          (Serve_state.n_pairs state)
          (Serve_state.maxsum state)
      in
      let serve_batch (batch : Trace.batch) =
        let t0 = Budget.now_s () in
        Journal.append journal ~seq:batch.Trace.seq
          ~payload:(Trace.batch_to_string batch);
        journaled := batch.Trace.seq;
        incr since_snapshot;
        Fault.inject "serve.crash";
        (match Serve_state.apply_batch state batch with
        | Error e ->
            incr errors;
            p "error %d %s" batch.Trace.seq (Error.to_string e)
        | Ok () ->
            incr applied;
            let r = repair c state ~timeout_s in
            rewalked := !rewalked + r.Serve_state.rewalked;
            if
              r.Serve_state.rewalked = Serve_state.n_users state
              && Serve_state.n_users state > 0
            then incr full_replays;
            Fault.inject "serve.crash";
            if r.Serve_state.complete then begin
              degraded := false;
              p "ok %d from %d pairs %d maxsum %g" batch.Trace.seq
                r.Serve_state.replayed_from
                (Serve_state.n_pairs state)
                (Serve_state.maxsum state)
            end
            else begin
              (* The batch stays applied; what the cut left pending rolls
                 into the next batch's repair. *)
              incr degraded_batches;
              degraded := true;
              p "degraded %d served %d/%d reason repair timed out" batch.Trace.seq
                (Serve_state.cursor state)
                (Serve_state.n_users state)
            end;
            if List.exists (fun op -> op = Trace.Stats) batch.Trace.ops then
              stats_line batch.Trace.seq);
        (* On every path — rejected batches were journaled too, and the
           cadence must truncate that growth as well. A rejected batch
           leaves the state untouched, so the snapshot is consistent. *)
        maybe_snapshot batch.Trace.seq;
        latencies := (Budget.now_s () -. t0) :: !latencies
      in
      List.iter
        (fun group ->
          let fresh, old =
            List.partition
              (fun (b : Trace.batch) -> b.Trace.seq > !journaled)
              group
          in
          skipped := !skipped + List.length old;
          if fresh <> [] then
            List.iter
              (fun ((batch : Trace.batch), decision) ->
                match decision with
                | Admission.Shed ->
                    incr shed;
                    p "shed %d %s" batch.Trace.seq
                      (Trace.tier_name batch.Trace.tier)
                | Admission.Admit ->
                    incr admitted;
                    serve_batch batch)
              (Admission.plan ~queue_cap:c.queue_cap
                 ~degraded:!degraded fresh))
        (Trace.groups trace.Trace.batches);
      Journal.close journal;
      let digest = Serve_state.digest state in
      p "done seq %d applied %d degraded %d shed %d errors %d digest %s"
        (Serve_state.seq state) !applied !degraded_batches !shed !errors digest;
      Ok
        {
          batches = List.length trace.Trace.batches;
          admitted = !admitted;
          shed = !shed;
          skipped = !skipped;
          applied = !applied;
          errors = !errors;
          degraded_batches = !degraded_batches;
          full_replays = !full_replays;
          rewalked = !rewalked;
          snapshots = !snapshots;
          replayed;
          latencies_s = List.rev !latencies;
          digest;
          maxsum = Serve_state.maxsum state;
          seq = Serve_state.seq state;
        }
