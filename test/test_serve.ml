(* Crash-safe serving loop: journal framing and recovery, snapshots,
   admission control, incremental repair equivalence, and the crash-injection
   sweep asserting that recovery from any checkpoint reaches the digest of an
   uninterrupted run.

   Everything runs on tiny Meetup-shaped traces; wall-clock deadlines are
   never armed — budget expiry goes through [timeout.<stage>@N] fault-plan
   entries so the degradations replay identically on every run. *)

module Serve = Geacc_serve
module Trace = Serve.Trace
module Journal = Serve.Journal
module Snapshot = Serve.Snapshot
module Admission = Serve.Admission
module Serve_state = Serve.Serve_state
module Serve_loop = Serve.Serve_loop
module Trace_gen = Geacc_datagen.Trace_gen
module Meetup = Geacc_datagen.Meetup
module Fault = Geacc_robust.Fault
module Error = Geacc_robust.Error

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let path = Filename.temp_file "geacc_serve" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let null_out f =
  let out = open_out Filename.null in
  Fun.protect ~finally:(fun () -> close_out out) (fun () -> f out)

let tiny_city = { Meetup.name = "tiny"; n_events = 8; n_users = 48 }

let tiny_trace ?(seed = 5) () =
  Trace_gen.generate ~seed ~city:tiny_city ~arrivals_per_batch:2 ~churn:0.15 ()

(* A departure in every batch. *)
let churn_trace ?(seed = 5) () =
  Trace_gen.generate ~seed ~city:tiny_city ~arrivals_per_batch:2 ~churn:1.0 ()

let run_ok config trace =
  null_out (fun out ->
      match Serve_loop.run config ~out trace with
      | Ok report -> report
      | Error e -> Alcotest.failf "serve failed: %s" (Error.to_string e))

let parsed_trace lines =
  match Trace.parse (String.concat "\n" (lines @ [ "" ])) with
  | Ok t -> t
  | Error e -> Alcotest.failf "trace parse: %s" (Error.to_string e)

(* -- Trace ------------------------------------------------------------- *)

let test_trace_roundtrip () =
  let trace = tiny_trace () in
  let text = Trace.save trace in
  match Trace.parse text with
  | Error e -> Alcotest.failf "re-parse failed: %s" (Error.to_string e)
  | Ok back ->
      Alcotest.(check string) "save/parse/save fixpoint" text (Trace.save back)

let test_trace_groups () =
  let batch seq ts = { Trace.seq; ts; tier = Trace.Must; ops = [] } in
  let groups =
    Trace.groups [ batch 1 0.; batch 2 0.; batch 3 1.; batch 4 2.; batch 5 2. ]
  in
  Alcotest.(check (list (list int)))
    "consecutive equal-ts runs"
    [ [ 1; 2 ]; [ 3 ]; [ 4; 5 ] ]
    (List.map (List.map (fun (b : Trace.batch) -> b.Trace.seq)) groups)

let test_batch_roundtrip () =
  let batch =
    {
      Trace.seq = 3;
      ts = 1.25;
      tier = Trace.Should;
      ops =
        [
          Trace.User_arrive { capacity = 2; attrs = [| 0.5; 0.25 |] };
          Trace.Event_capacity { v = 1; capacity = 7 };
          Trace.Conflict_add (0, 2);
          Trace.User_depart 0;
          Trace.Event_close 1;
          Trace.Stats;
        ];
    }
  in
  match Trace.parse_batch (Trace.batch_to_string batch) with
  | Error e -> Alcotest.failf "parse_batch: %s" (Error.to_string e)
  | Ok back ->
      Alcotest.(check string)
        "block fixpoint"
        (Trace.batch_to_string batch)
        (Trace.batch_to_string back)

(* -- Journal ----------------------------------------------------------- *)

let payloads = [ "alpha"; ""; "batch 3 1.5 must\nstats\nend" ]

let write_journal dir =
  let path = Filename.concat dir "journal.wal" in
  let j = Journal.open_for_append ~path () in
  List.iteri (fun i payload -> Journal.append j ~seq:(i + 1) ~payload) payloads;
  Journal.close j;
  path

let test_journal_roundtrip () =
  with_tmpdir (fun dir ->
      let path = write_journal dir in
      match Journal.recover ~path () with
      | Error e -> Alcotest.failf "recover: %s" (Error.to_string e)
      | Ok { Journal.records; torn_bytes } ->
          Alcotest.(check int) "no torn tail" 0 torn_bytes;
          Alcotest.(check (list (pair int string)))
            "records round-trip"
            (List.mapi (fun i p -> (i + 1, p)) payloads)
            (List.map
               (fun (r : Journal.record) -> (r.Journal.seq, r.Journal.payload))
               records))

let test_journal_missing_is_empty () =
  with_tmpdir (fun dir ->
      match Journal.recover ~path:(Filename.concat dir "none.wal") () with
      | Ok { Journal.records = []; torn_bytes = 0 } -> ()
      | Ok _ -> Alcotest.fail "expected empty recovery"
      | Error e -> Alcotest.failf "recover: %s" (Error.to_string e))

let test_journal_torn_tail_dropped () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "journal.wal" in
      let j = Journal.open_for_append ~path () in
      Journal.append j ~seq:1 ~payload:"first";
      Journal.append j ~seq:2 ~payload:"second";
      (try
         Fault.with_plan "io.short_write@1" (fun () ->
             Journal.append j ~seq:3 ~payload:"torn away")
       with Fault.Injected { point } ->
         Alcotest.(check string) "short write fired" "io.short_write" point);
      Journal.close j;
      (match Journal.recover ~path () with
      | Error e -> Alcotest.failf "recover: %s" (Error.to_string e)
      | Ok { Journal.records; torn_bytes } ->
          Alcotest.(check bool) "tail was torn" true (torn_bytes > 0);
          Alcotest.(check (list int))
            "intact prefix survives" [ 1; 2 ]
            (List.map (fun (r : Journal.record) -> r.Journal.seq) records));
      (* The torn bytes were truncated in place: appending works again and a
         second recovery is clean. *)
      let j = Journal.open_for_append ~path () in
      Journal.append j ~seq:3 ~payload:"third";
      Journal.close j;
      match Journal.recover ~path () with
      | Ok { Journal.records; torn_bytes } ->
          Alcotest.(check int) "clean after truncate" 0 torn_bytes;
          Alcotest.(check (list int))
            "resumed seq" [ 1; 2; 3 ]
            (List.map (fun (r : Journal.record) -> r.Journal.seq) records)
      | Error e -> Alcotest.failf "second recover: %s" (Error.to_string e))

let test_journal_corruption_rejected () =
  with_tmpdir (fun dir ->
      let path = write_journal dir in
      Fault.with_plan "journal.corrupt@1" (fun () ->
          match Journal.recover ~path () with
          | Error (Error.Parse_error { message; _ }) ->
              Alcotest.(check bool)
                (Printf.sprintf "crc named (%s)" message)
                true
                (String.length message > 0
                && String.sub message 0 3 = "jou")
          | Error e ->
              Alcotest.failf "wrong error: %s" (Error.to_string e)
          | Ok _ -> Alcotest.fail "corrupt record accepted"))

let test_journal_seq_regression_rejected () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "journal.wal" in
      let j = Journal.open_for_append ~path () in
      Journal.append j ~seq:2 ~payload:"x";
      Journal.append j ~seq:1 ~payload:"y";
      Journal.close j;
      match Journal.recover ~path () with
      | Error (Error.Parse_error _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
      | Ok _ -> Alcotest.fail "seq regression accepted")

(* -- State + snapshot -------------------------------------------------- *)

(* Applies, repairs and commits each batch. *)
let serve_all state batches =
  List.iter
    (fun batch ->
      match Serve_state.apply_batch state batch with
      | Ok () ->
          let r =
            Serve_state.repair state ~deadline:Geacc_robust.Budget.unlimited
          in
          Serve_state.commit state r
      | Error e -> Alcotest.failf "apply: %s" (Error.to_string e))
    batches

let built_state () =
  let trace = tiny_trace () in
  let state = Serve_state.create ~sim:trace.Trace.sim in
  serve_all state trace.Trace.batches;
  state

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A snapshot written to [path] and read back. *)
let reload ~path state =
  Snapshot.save ~path state;
  match Snapshot.load ~path with
  | Ok back -> back
  | Error e -> Alcotest.failf "load: %s" (Error.to_string e)

let test_state_save_load () =
  let state = built_state () in
  with_tmpdir (fun dir ->
      let back = reload ~path:(Filename.concat dir "snapshot.geacc") state in
      Alcotest.(check string)
        "digest survives the round-trip" (Serve_state.digest state)
        (Serve_state.digest back);
      Alcotest.(check int) "seq" (Serve_state.seq state) (Serve_state.seq back);
      Alcotest.(check int)
        "cursor" (Serve_state.cursor state) (Serve_state.cursor back))

let test_snapshot_roundtrip () =
  with_tmpdir (fun dir ->
      let state = built_state () in
      let path = Filename.concat dir "snapshot.geacc" in
      Alcotest.(check bool) "absent before" false (Snapshot.exists ~path);
      Snapshot.save ~path state;
      Alcotest.(check bool) "present after" true (Snapshot.exists ~path);
      match Snapshot.load ~path with
      | Error e -> Alcotest.failf "load: %s" (Error.to_string e)
      | Ok back ->
          Alcotest.(check string)
            "digest survives" (Serve_state.digest state)
            (Serve_state.digest back))

let test_snapshot_corruption_rejected () =
  with_tmpdir (fun dir ->
      let state = built_state () in
      let path = Filename.concat dir "snapshot.geacc" in
      Snapshot.save ~path state;
      (* Flip one payload byte well past the header lines. *)
      let b = Bytes.of_string (read_file path) in
      let pos = Bytes.length b - 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      match Snapshot.load ~path with
      | Error (Error.Parse_error _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
      | Ok _ -> Alcotest.fail "corrupt snapshot accepted")

(* -- Snapshot format v3: entity segment plus mutable part --------------- *)

let file_size path = (Unix.stat path).Unix.st_size
let segment_path dir = Filename.concat dir "snapshot.geacc.seg"

(* Serves the churn trace batch by batch, saving after every batch into
   one directory and carrying on from the loaded state on odd batches and
   from the live one on even batches: every load equals what was saved,
   and the segment only ever grows by the entities each save adds. *)
let test_snapshot_v3_roundtrip () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "snapshot.geacc" in
      let trace = churn_trace ~seed:3 () in
      let state = ref (Serve_state.create ~sim:trace.Trace.sim) in
      List.iteri
        (fun i (batch : Trace.batch) ->
          serve_all !state [ batch ];
          let before = if i = 0 then 0 else file_size (segment_path dir) in
          let back = reload ~path !state in
          let label = Printf.sprintf "batch %d" batch.Trace.seq in
          Alcotest.(check string)
            (label ^ ": digest") (Serve_state.digest !state) (Serve_state.digest back);
          Alcotest.(check int)
            (label ^ ": pending bound") (Serve_state.dirty_from !state)
            (Serve_state.dirty_from back);
          let arrivals =
            List.length
              (List.filter
                 (function Trace.User_arrive _ | Trace.Event_open _ -> true | _ -> false)
                 batch.Trace.ops)
          in
          Alcotest.(check bool)
            (label ^ ": the segment grew iff entities arrived")
            (arrivals > 0)
            (file_size (segment_path dir) > before);
          if i mod 2 = 1 then state := back)
        trace.Trace.batches)

(* A save that brings no entity appends nothing, and the mutable part
   holds no attribute value: past the wrapper's [crc] line every token is
   an integer or a word without digits. *)
let test_snapshot_mutable_part_is_integers () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "snapshot.geacc" in
      let state = built_state () in
      Snapshot.save ~path state;
      let size = file_size (segment_path dir) in
      serve_all state
        [
          {
            Trace.seq = Serve_state.seq state + 1;
            ts = 1e6;
            tier = Trace.Must;
            ops = [ Trace.User_depart 0; Trace.Event_capacity { v = 1; capacity = 3 } ];
          };
        ];
      Snapshot.save ~path state;
      Alcotest.(check int) "no segment bytes appended" size (file_size (segment_path dir));
      let has_digit t = String.exists (fun c -> c >= '0' && c <= '9') t in
      String.split_on_char '\n' (read_file path)
      |> List.iteri (fun i line ->
             if i >= 2 then
               List.iter
                 (fun tok ->
                   if has_digit tok && int_of_string_opt tok = None then
                     Alcotest.failf "line %d holds a non-integer %S" (i + 1) tok)
                 (String.split_on_char ' ' line));
      match Snapshot.load ~path with
      | Ok back ->
          Alcotest.(check string) "digest" (Serve_state.digest state)
            (Serve_state.digest back)
      | Error e -> Alcotest.failf "load: %s" (Error.to_string e))

(* A save killed between its segment append and its mutable part leaves an
   unreferenced tail; cut in half it is also torn. Load ignores it, and the
   next save cuts it off before appending. *)
let test_snapshot_torn_tail () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "snapshot.geacc" in
      let trace = tiny_trace () in
      let first, rest =
        List.partition (fun (b : Trace.batch) -> b.Trace.seq <= 6) trace.Trace.batches
      in
      let state = Serve_state.create ~sim:trace.Trace.sim in
      serve_all state first;
      Snapshot.save ~path state;
      let saved = Serve_state.digest state and referenced = file_size (segment_path dir) in
      serve_all state rest;
      (match Fault.with_plan "serve.crash@1" (fun () -> Snapshot.save ~path state) with
      | () -> Alcotest.fail "the save was not cut"
      | exception Fault.Injected { point = "serve.crash" } -> ());
      let grown = file_size (segment_path dir) in
      Alcotest.(check bool) "the cut save appended" true (grown > referenced);
      Unix.truncate (segment_path dir) (referenced + ((grown - referenced) / 2));
      let back =
        match Snapshot.load ~path with
        | Ok back -> back
        | Error e -> Alcotest.failf "load: %s" (Error.to_string e)
      in
      Alcotest.(check string) "the tail is ignored" saved (Serve_state.digest back);
      Snapshot.save ~path back;
      Alcotest.(check int) "the next save truncates it" referenced
        (file_size (segment_path dir));
      serve_all back rest;
      let again = reload ~path back in
      Alcotest.(check string) "and appends after it" (Serve_state.digest state)
        (Serve_state.digest again))

(* Damage to the referenced prefix, or its absence, is a parse error that
   names the segment on the mutable part's [segment] line (line 8). *)
let test_snapshot_segment_errors () =
  let expect what ~damage ~mentions =
    with_tmpdir (fun dir ->
        let path = Filename.concat dir "snapshot.geacc" in
        Snapshot.save ~path (built_state ());
        damage (segment_path dir);
        match Snapshot.load ~path with
        | Error (Error.Parse_error { line; message }) ->
            Alcotest.(check int) (what ^ ": the segment line") 8 line;
            let n = String.length mentions in
            let rec found i =
              i + n <= String.length message
              && (String.sub message i n = mentions || found (i + 1))
            in
            if not (found 0) then
              Alcotest.failf "%s: unexpected message %S" what message
        | Error e -> Alcotest.failf "%s: wrong error %s" what (Error.to_string e)
        | Ok _ -> Alcotest.failf "%s: accepted" what)
  in
  expect "crc mismatch" ~mentions:"crc mismatch" ~damage:(fun seg ->
      let b = Bytes.of_string (read_file seg) in
      let pos = Bytes.length b / 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
      let oc = open_out_bin seg in
      output_bytes oc b;
      close_out oc);
  expect "short prefix" ~mentions:"the snapshot references" ~damage:(fun seg ->
      Unix.truncate seg (file_size seg - 1));
  expect "missing segment" ~mentions:"is missing" ~damage:Sys.remove

(* A state directory written in the v2 format (test/fixtures/serve-v2)
   loads with every user pending, and serving the rest of its trace ends
   on the digest of a full replay; the run rewrites it as v3. *)
let test_snapshot_v2_migration () =
  let fixture = Filename.concat "fixtures" "serve-v2" in
  let trace =
    match Trace.parse (read_file (Filename.concat fixture "tiny.trace")) with
    | Ok t -> t
    | Error e -> Alcotest.failf "fixture trace: %s" (Error.to_string e)
  in
  (match Snapshot.load ~path:(Filename.concat fixture "snapshot.geacc") with
  | Ok v2 ->
      Alcotest.(check int) "seq" 12 (Serve_state.seq v2);
      Alcotest.(check int) "every user pending" 0 (Serve_state.dirty_from v2)
  | Error e -> Alcotest.failf "v2 load: %s" (Error.to_string e));
  let full =
    with_tmpdir (fun dir ->
        (run_ok { (Serve_loop.default ~state_dir:dir) with Serve_loop.mode = Serve_loop.Full } trace)
          .Serve_loop.digest)
  in
  with_tmpdir (fun dir ->
      List.iter
        (fun f ->
          let oc = open_out_bin (Filename.concat dir f) in
          output_string oc (read_file (Filename.concat fixture f));
          close_out oc)
        [ "snapshot.geacc"; "journal.wal" ];
      let config = { (Serve_loop.default ~state_dir:dir) with Serve_loop.snapshot_every = 4 } in
      let report = run_ok config trace in
      Alcotest.(check int) "journal tail replayed" 2 report.Serve_loop.replayed;
      Alcotest.(check string) "digest equals a full replay" full report.Serve_loop.digest;
      Alcotest.(check bool) "rewritten as v3" true
        (List.nth (String.split_on_char '\n' (read_file (Filename.concat dir "snapshot.geacc"))) 2
        = "geacc-serve-state 3"))

let test_state_rejects_bad_batches () =
  let trace = tiny_trace () in
  let state = Serve_state.create ~sim:trace.Trace.sim in
  let apply seq ops =
    Serve_state.apply_batch state
      { Trace.seq; ts = 0.; tier = Trace.Must; ops }
  in
  let expect_error what = function
    | Error (Error.Invalid_input _) -> ()
    | Error e -> Alcotest.failf "%s: wrong error %s" what (Error.to_string e)
    | Ok () -> Alcotest.failf "%s accepted" what
  in
  expect_error "unknown user id" (apply 1 [ Trace.User_depart 0 ]);
  (match
     apply 1
       [
         Trace.User_arrive { capacity = 1; attrs = [| 1.; 0. |] };
         Trace.Event_open { capacity = 2; attrs = [| 1.; 0. |] };
       ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid batch rejected: %s" (Error.to_string e));
  expect_error "seq replay" (apply 1 [ Trace.Stats ]);
  expect_error "double depart"
    (apply 2 [ Trace.User_depart 0; Trace.User_depart 0 ]);
  expect_error "self conflict" (apply 2 [ Trace.Conflict_add (0, 0) ]);
  expect_error "dim mismatch"
    (apply 2 [ Trace.User_arrive { capacity = 1; attrs = [| 1. |] } ])

(* -- Per-batch exactness ------------------------------------------------ *)

module Online = Geacc_core.Online
module Matching = Geacc_core.Matching
module Instance = Geacc_core.Instance
module Budget = Geacc_robust.Budget

(* The oracle: a full [Online] replay on a cold copy of the instance (fresh
   neighbour lists, nothing shared with the state's warm instance). *)
let replay state =
  match Serve_state.instance state with
  | None -> ([], 0.)
  | Some inst -> (
      match
        Online.solve
          (Instance.create ~sim:(Instance.similarity inst)
             ~events:(Instance.events inst) ~users:(Instance.users inst)
             ~conflicts:(Instance.conflicts inst) ())
      with
      | Ok m -> (Matching.pairs m, Matching.maxsum_recomputed m)
      | Error e -> Alcotest.failf "replay: %s" (Error.to_string e))

let check_canonical ~label state =
  let want, want_sum = replay state in
  Alcotest.(check (list (pair int int)))
    (label ^ ": pairs equal a full replay")
    want (Serve_state.pairs state);
  Alcotest.(check int64)
    (label ^ ": maxsum bits equal a full replay")
    (Int64.bits_of_float want_sum)
    (Int64.bits_of_float (Serve_state.maxsum state));
  Alcotest.(check int)
    (label ^ ": pair count")
    (List.length want) (Serve_state.n_pairs state)

let apply_ok state batch =
  match Serve_state.apply_batch state batch with
  | Ok () -> ()
  | Error e -> Alcotest.failf "apply %d: %s" batch.Trace.seq (Error.to_string e)

let repair_commit state =
  let r = Serve_state.repair state ~deadline:Budget.unlimited in
  Alcotest.(check bool) "repair completes" true r.Serve_state.complete;
  Serve_state.commit state r;
  r

(* Applies, propagates and checks every batch; then re-walks everyone
   ([mark_all_dirty]), which must change nothing. *)
let serve_exact ~label trace =
  let state = Serve_state.create ~sim:trace.Trace.sim in
  List.iter
    (fun (batch : Trace.batch) ->
      apply_ok state batch;
      ignore (repair_commit state : Serve_state.repair);
      check_canonical ~label:(Printf.sprintf "%s batch %d" label batch.Trace.seq) state)
    trace.Trace.batches;
  let before = Serve_state.digest state in
  Serve_state.mark_all_dirty state;
  let r = repair_commit state in
  Alcotest.(check int) (label ^ ": full re-walk") (Serve_state.n_users state)
    r.Serve_state.rewalked;
  Alcotest.(check string) (label ^ ": full re-walk changes nothing") before
    (Serve_state.digest state)

let test_exact_generated () =
  List.iter
    (fun (city, seeds) ->
      List.iter
        (fun seed ->
          List.iter
            (fun churn ->
              List.iter
                (fun arrivals_per_batch ->
                  let trace =
                    Trace_gen.generate ~seed ~city ~arrivals_per_batch ~churn ()
                  in
                  serve_exact
                    ~label:
                      (Printf.sprintf "%s seed %d churn %g arrivals %d"
                         city.Meetup.name seed churn arrivals_per_batch)
                    trace)
                [ 1; 2 ])
            [ 0.1; 1.0 ])
        seeds)
    [ (tiny_city, [ 1; 2; 3; 5; 9 ]); (Meetup.auckland, [ 7; 11 ]) ];
  (* Cosine has no distance profile: ranks come from the scanned source. *)
  let trace = churn_trace ~seed:8 () in
  serve_exact ~label:"tiny cosine"
    { trace with Trace.sim = Geacc_core.Similarity.cosine }

(* Hand-built traces, one per seed rule, over a 2-d world where the
   distances fix every user's ranks. Each batch is checked against the
   oracle, and the final pairs against the arrangement worked out by hand
   (comments give each user's ranks, nearest first). *)
let hand_exact ~label ~expect lines =
  let trace = parsed_trace ([ "geacc-trace 1"; "sim euclidean 2 1" ] @ lines) in
  let state = Serve_state.create ~sim:trace.Trace.sim in
  let rewalked =
    List.map
      (fun (batch : Trace.batch) ->
        apply_ok state batch;
        let r = repair_commit state in
        check_canonical ~label:(Printf.sprintf "%s batch %d" label batch.Trace.seq) state;
        (Serve_state.pairs state, r.Serve_state.rewalked))
      trace.Trace.batches
  in
  List.iter2
    (fun (i, want) (got, _) ->
      if i >= 0 then
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "%s: pairs after batch %d" label (i + 1))
          want got)
    (List.mapi (fun i w -> (i, w)) expect)
    rewalked;
  List.map snd rewalked

(* Event 0 (A) at (0,0), event 1 (B) at (1,0); users 0-2 at x = .05, .1,
   .15, capacity 1, all ranking A then B. Lowering A to 1 seat evicts its
   second holder; raising it to 3 hands the freed seats back in id order
   (user 1 first, whose re-walk passes the next seat on to user 2). *)
let test_rule_capacity () =
  ignore
    (hand_exact ~label:"capacity"
       ~expect:
         [
           [ (0, 0); (0, 1); (1, 2) ];
           [ (0, 0); (1, 1); (1, 2) ];
           [ (0, 0); (0, 1); (0, 2) ];
         ]
       [
         "batch 1 0 must"; "event-open 2 0 0"; "event-open 5 1 0";
         "user-arrive 1 0.05 0"; "user-arrive 1 0.1 0"; "user-arrive 1 0.15 0";
         "end";
         "batch 2 1 must"; "event-capacity 0 1"; "end";
         "batch 3 2 must"; "event-capacity 0 3"; "end";
       ]
      : int list)

(* Events A (0,0), B (1,0), C (0,1), D (1,1), one seat each. User 0 at
   (.1,.6) ranks C A D B; user 1 at (.3,.05) ranks A B ..; user 2 at
   (.85,.3) ranks B D ... Closing C sends user 0 to A, evicting user 1,
   who takes B, evicting user 2, who takes D: an eviction chain of two. *)
let test_rule_close_eviction_chain () =
  match
    hand_exact ~label:"close"
      ~expect:
        [
          [ (0, 1); (1, 2); (2, 0) ];
          [ (0, 0); (1, 1); (3, 2) ];
        ]
      [
        "batch 1 0 must"; "event-open 1 0 0"; "event-open 1 1 0";
        "event-open 1 0 1"; "event-open 1 1 1";
        "user-arrive 1 0.1 0.6"; "user-arrive 1 0.3 0.05"; "user-arrive 1 0.85 0.3";
        "end";
        "batch 2 1 must"; "event-close 2"; "end";
      ]
  with
  | [ _; chain ] -> Alcotest.(check int) "the chain re-walks all three" 3 chain
  | _ -> Alcotest.fail "two batches"

(* A (0,0), B (1,0), C (0,1), one seat each. User 0 at (.1,0) takes A;
   user 1 at (.2,0) ranks A B C and gets B; user 2 at (.9,0) ranks B A C
   and gets C. When user 0, A's fill holder, leaves, its seat passes to
   user 1, whose B passes to user 2. *)
let test_rule_fill_holder_departs () =
  ignore
    (hand_exact ~label:"depart"
       ~expect:[ [ (0, 0); (1, 1); (2, 2) ]; [ (0, 1); (1, 2) ] ]
       [
         "batch 1 0 must"; "event-open 1 0 0"; "event-open 1 1 0";
         "event-open 1 0 1";
         "user-arrive 1 0.1 0"; "user-arrive 1 0.2 0"; "user-arrive 1 0.9 0";
         "end";
         "batch 2 1 must"; "user-depart 0"; "end";
       ]
      : int list)

(* A (0,0) and C (1,0) with 3 seats, B (.3,0) with 1. User 0 (capacity 2,
   at .1) takes A and B; user 1 (capacity 1, at .35) ranks B A C and gets
   A. A new conflict A-B makes user 0 drop B for C, and B's freed seat
   goes to user 1, which had no seat there. *)
let test_rule_conflict () =
  ignore
    (hand_exact ~label:"conflict"
       ~expect:[ [ (0, 0); (0, 1); (1, 0) ]; [ (0, 0); (1, 1); (2, 0) ] ]
       [
         "batch 1 0 must"; "event-open 3 0 0"; "event-open 1 0.3 0";
         "event-open 3 1 0";
         "user-arrive 2 0.1 0"; "user-arrive 1 0.35 0";
         "end";
         "batch 2 1 must"; "conflict-add 0 1"; "end";
       ]
      : int list)

(* A (0,0) with 5 seats; users 0 and 1 at (.5,.5) and (.6,.5) take it.
   Event 1 opens at (.55,.5) with one seat: both now rank it first; user 0
   takes it and drops A, user 1 finds it full and keeps A. *)
let test_rule_event_open () =
  ignore
    (hand_exact ~label:"open"
       ~expect:[ [ (0, 0); (0, 1) ]; [ (0, 1); (1, 0) ] ]
       [
         "batch 1 0 must"; "event-open 5 0 0";
         "user-arrive 1 0.5 0.5"; "user-arrive 1 0.6 0.5";
         "end";
         "batch 2 1 must"; "event-open 1 0.55 0.5"; "end";
       ]
      : int list)

(* A repair cut mid-propagation commits canonical pairs below its cursor,
   the cut user's partial walk and nothing above; the next batch re-walks
   from the cursor and lands on the canonical arrangement again. *)
let test_cut_then_finish () =
  let trace = churn_trace ~seed:3 () in
  let state = Serve_state.create ~sim:trace.Trace.sim in
  let cuts = ref 0 in
  List.iteri
    (fun i (batch : Trace.batch) ->
      apply_ok state batch;
      if i mod 3 = 1 then begin
        let deadline =
          Budget.create ~poll_every:1 ~expire_after_polls:4 ~timeout_s:1e9 ()
        in
        let r = Serve_state.repair state ~deadline in
        Serve_state.commit state r;
        if not r.Serve_state.complete then begin
          incr cuts;
          let cursor = Serve_state.cursor state in
          let want, _ = replay state in
          let below = List.filter (fun (_, u) -> u < cursor) in
          Alcotest.(check (list (pair int int)))
            "canonical below the cursor" (below want)
            (below (Serve_state.pairs state));
          Alcotest.(check bool)
            "nothing above the cursor" true
            (List.for_all (fun (_, u) -> u <= cursor) (Serve_state.pairs state));
          Alcotest.(check int) "re-walk resumes at the cursor" cursor
            (Serve_state.dirty_from state)
        end
      end
      else begin
        ignore (repair_commit state : Serve_state.repair);
        check_canonical ~label:(Printf.sprintf "after batch %d" batch.Trace.seq) state
      end)
    trace.Trace.batches;
  Alcotest.(check bool) "some repairs were cut" true (!cuts > 0)

(* A snapshot taken with a repair pending (seeds from an applied batch, or
   a cut's dirty bound) loads into a state that repairs to the canonical
   arrangement. *)
let test_load_pending () =
  with_tmpdir @@ fun dir ->
  let trace = churn_trace ~seed:4 () in
  let state = ref (Serve_state.create ~sim:trace.Trace.sim) in
  let reload () = state := reload ~path:(Filename.concat dir "snapshot.geacc") !state in
  List.iteri
    (fun i (batch : Trace.batch) ->
      apply_ok !state batch;
      let pending = Serve_state.dirty_from !state in
      reload ();
      Alcotest.(check int) "pending bound survives" pending
        (Serve_state.dirty_from !state);
      if i mod 4 = 2 then begin
        let deadline =
          Budget.create ~poll_every:1 ~expire_after_polls:2 ~timeout_s:1e9 ()
        in
        Serve_state.commit !state (Serve_state.repair !state ~deadline);
        reload ()
      end;
      ignore (repair_commit !state : Serve_state.repair);
      check_canonical ~label:(Printf.sprintf "batch %d" batch.Trace.seq) !state)
    trace.Trace.batches

(* The warm instance keeps the user-side NN source (event index and the
   users' ranked streams) across batches; only a batch opening an event
   rebuilds it, after which only the re-walked users have streams. *)
let test_user_source_shared () =
  let trace = churn_trace ~seed:6 () in
  let state = Serve_state.create ~sim:trace.Trace.sim in
  let streams () =
    match Serve_state.instance state with
    | Some inst -> snd (Instance.neighbor_work inst)
    | None -> 0
  in
  List.iter
    (fun (batch : Trace.batch) ->
      let before = streams () in
      apply_ok state batch;
      let r = repair_commit state in
      let after = streams () in
      let opens =
        List.exists
          (function Trace.Event_open _ -> true | _ -> false)
          batch.Trace.ops
      in
      if opens then
        Alcotest.(check bool)
          (Printf.sprintf "batch %d rebuilt the source" batch.Trace.seq)
          true
          (after <= r.Serve_state.rewalked)
      else
        Alcotest.(check bool)
          (Printf.sprintf "batch %d kept the source" batch.Trace.seq)
          true (after >= before))
    trace.Trace.batches

(* The commit audit replaces the old replay-from-0 fallback as the guard:
   a state whose pairs are feasible but not canonical, with a clean dirty
   bound, is trusted by propagation — and the audit refuses the commit. *)
let test_audit_catches_noncanonical () =
  let trace = tiny_trace () in
  let state = built_state () in
  let inst =
    match Serve_state.instance state with
    | Some i -> i
    | None -> Alcotest.fail "built state has no instance"
  in
  Alcotest.(check bool) "canonical has pairs" true (Serve_state.n_pairs state > 0);
  (* Adopt the empty arrangement as if it were complete. *)
  let n = Serve_state.n_users state in
  Serve_state.commit state
    {
      Serve_state.matching = Some (Matching.create inst);
      served_to = n;
      complete = true;
      replayed_from = n;
      rewalked = 0;
    };
  with_tmpdir (fun dir ->
      Snapshot.save ~path:(Filename.concat dir "snapshot.geacc") state;
      let next =
        {
          Trace.seq = Serve_state.seq state + 1;
          ts = 1e6;
          tier = Trace.Must;
          ops = [ Trace.User_arrive { capacity = 1; attrs = (Instance.user inst 0).Geacc_core.Entity.attrs } ];
        }
      in
      let config = Serve_loop.default ~state_dir:dir in
      let run () = run_ok config { trace with Trace.batches = [ next ] } in
      match Geacc_check.Audit.with_enabled true run with
      | _ -> Alcotest.fail "audit accepted a non-canonical arrangement"
      | exception Geacc_check.Audit.Violation { site; _ } ->
          Alcotest.(check string) "fired at commit" "serve.commit" site)

(* -- Admission --------------------------------------------------------- *)

let batch seq tier = { Trace.seq; ts = 0.; tier; ops = [] }

let decisions plan = List.map snd plan

let test_admission_tier_order () =
  (* Tier outranks arrival order: the Should arriving last still beats the
     Optional arriving first for the single non-must slot. *)
  let group =
    [
      batch 1 Trace.Optional;
      batch 2 Trace.Must;
      batch 3 Trace.Should;
      batch 4 Trace.Should;
    ]
  in
  let plan = Admission.plan ~queue_cap:2 ~degraded:false group in
  Alcotest.(check (list string))
    "one slot left after the must, shoulds first"
    [ "shed"; "admit"; "admit"; "shed" ]
    (List.map Admission.decision_name (decisions plan))

let test_admission_must_overflows () =
  let group = [ batch 1 Trace.Must; batch 2 Trace.Must; batch 3 Trace.Must ] in
  let plan = Admission.plan ~queue_cap:1 ~degraded:false group in
  Alcotest.(check (list string))
    "musts are never shed"
    [ "admit"; "admit"; "admit" ]
    (List.map Admission.decision_name (decisions plan))

let test_admission_degraded_sheds_optional () =
  let group = [ batch 1 Trace.Optional; batch 2 Trace.Optional ] in
  let ok = Admission.plan ~queue_cap:10 ~degraded:false group in
  let bad = Admission.plan ~queue_cap:10 ~degraded:true group in
  Alcotest.(check (list string))
    "healthy admits" [ "admit"; "admit" ]
    (List.map Admission.decision_name (decisions ok));
  Alcotest.(check (list string))
    "degraded sheds every optional" [ "shed"; "shed" ]
    (List.map Admission.decision_name (decisions bad))

(* -- Serving loop ------------------------------------------------------ *)

let test_incremental_equals_full () =
  let digest_of trace mode =
    with_tmpdir (fun dir ->
        let config =
          { (Serve_loop.default ~state_dir:dir) with Serve_loop.mode }
        in
        let report = run_ok config trace in
        Alcotest.(check int) "clean run" 0 (Serve_loop.exit_status report);
        (report.Serve_loop.digest, Int64.bits_of_float report.Serve_loop.maxsum))
  in
  List.iter
    (fun trace ->
      let di, mi = digest_of trace Serve_loop.Incremental in
      let df, mf = digest_of trace Serve_loop.Full in
      Alcotest.(check string) "digest bit-identical" df di;
      Alcotest.(check int64) "maxsum bit-identical" mf mi)
    [ tiny_trace (); churn_trace () ]

(* Shedding a state-changing batch shifts every later arrival's id, which
   cascades into apply errors — realistic, but noise here. These tests pin
   the degraded/shed exit path in isolation, so the trace is all-must (never
   shed) with stats-only lower-tier probes appended where needed. *)
let all_must trace =
  {
    trace with
    Trace.batches =
      List.map
        (fun (b : Trace.batch) -> { b with Trace.tier = Trace.Must })
        trace.Trace.batches;
  }

let test_deadline_degrades () =
  (* Expiring both repair stages on their first poll degrades every batch
     that has users to serve; the dirty bound still rolls forward, and exit
     status maps to 3. *)
  let trace = all_must (tiny_trace ()) in
  with_tmpdir (fun dir ->
      let config = Serve_loop.default ~state_dir:dir in
      let report =
        Fault.with_plan "timeout.repair@1,timeout.repair-full@1" (fun () ->
            run_ok config trace)
      in
      Alcotest.(check int) "no errors" 0 report.Serve_loop.errors;
      Alcotest.(check bool)
        "some batches degraded" true
        (report.Serve_loop.degraded_batches > 0);
      Alcotest.(check int) "exit degraded" 3 (Serve_loop.exit_status report))

(* [timeout.repair@3] cuts every batch's propagation on its third poll;
   the chain drops that result and the full stage re-walks on top of the
   state it left. The arrangement must come out exactly as in a clean run. *)
let test_dropped_cut_stays_repairable () =
  let trace = all_must (churn_trace ()) in
  let digest plan =
    with_tmpdir (fun dir ->
        let config = Serve_loop.default ~state_dir:dir in
        let report = Fault.with_plan plan (fun () -> run_ok config trace) in
        (report.Serve_loop.digest, report.Serve_loop.degraded_batches))
  in
  let clean, _ = digest "" in
  let cut, degraded = digest "timeout.repair@3" in
  Alcotest.(check bool) "propagation was cut" true (degraded > 0);
  Alcotest.(check string) "same final state" clean cut

let test_shed_exit_status () =
  let trace = all_must (tiny_trace ()) in
  (* A stats-only optional probe sharing the final timestamp: with one
     queue slot the must in its group wins and the probe is shed, losing
     no state. *)
  let last = List.nth trace.Trace.batches (List.length trace.Trace.batches - 1) in
  let probe =
    {
      Trace.seq = last.Trace.seq + 1;
      ts = last.Trace.ts;
      tier = Trace.Optional;
      ops = [ Trace.Stats ];
    }
  in
  let trace = { trace with Trace.batches = trace.Trace.batches @ [ probe ] } in
  with_tmpdir (fun dir ->
      let config =
        { (Serve_loop.default ~state_dir:dir) with Serve_loop.queue_cap = 1 }
      in
      let report = run_ok config trace in
      Alcotest.(check int) "no errors" 0 report.Serve_loop.errors;
      Alcotest.(check int) "exactly the probe shed" 1 report.Serve_loop.shed;
      Alcotest.(check int) "exit shed" 3 (Serve_loop.exit_status report))

let test_offline_mode_runs_clean () =
  let trace = tiny_trace () in
  with_tmpdir (fun dir ->
      let config =
        {
          (Serve_loop.default ~state_dir:dir) with
          Serve_loop.mode = Serve_loop.Offline;
        }
      in
      let report = run_ok config trace in
      Alcotest.(check int) "clean run" 0 (Serve_loop.exit_status report);
      Alcotest.(check int)
        "everything applied" report.Serve_loop.batches
        report.Serve_loop.applied)

(* -- Crash sweep ------------------------------------------------------- *)

(* The crash-safety contract: a run killed at ANY [serve.crash] checkpoint
   (post-journal-append, post-commit, around the snapshot rename, after the
   journal truncate) recovers on restart to exactly the digest an
   uninterrupted run reaches. A small snapshot interval makes the sweep
   cross several snapshot/truncate cycles. *)

let sweep_config dir =
  { (Serve_loop.default ~state_dir:dir) with Serve_loop.snapshot_every = 7 }

let crash_sweep trace =
  let reference =
    with_tmpdir (fun dir ->
        (run_ok (sweep_config dir) trace).Serve_loop.digest)
  in
  let checkpoints =
    with_tmpdir (fun dir ->
        Fault.with_plan "serve.crash@999999" (fun () ->
            ignore (run_ok (sweep_config dir) trace);
            Fault.hits "serve.crash"))
  in
  Alcotest.(check bool)
    (Printf.sprintf "checkpoints cover the trace (%d)" checkpoints)
    true
    (checkpoints > 2 * List.length trace.Trace.batches);
  for n = 1 to checkpoints do
    with_tmpdir (fun dir ->
        let crashed =
          Fault.with_plan
            (Printf.sprintf "serve.crash@%d" n)
            (fun () ->
              try
                ignore (run_ok (sweep_config dir) trace);
                false
              with Fault.Injected { point = "serve.crash" } -> true)
        in
        Alcotest.(check bool)
          (Printf.sprintf "crash %d fired" n)
          true crashed;
        let report = run_ok (sweep_config dir) trace in
        Alcotest.(check string)
          (Printf.sprintf "recovery from crash %d reaches the reference" n)
          reference report.Serve_loop.digest)
  done

let test_crash_sweep () = crash_sweep (tiny_trace ~seed:9 ())
let test_crash_sweep_churn () = crash_sweep (churn_trace ~seed:9 ())

(* A rejected batch is journaled (journal-before-apply) without advancing
   the applied seq. Admission must therefore filter on the highest
   journaled seq: filtering on the applied seq would re-journal the
   rejected tail batch with a duplicate seq on the first restart, and the
   journal's strict-monotonicity check would permanently refuse the state
   directory on the second. *)
let test_rejected_tail_survives_restarts () =
  let trace =
    parsed_trace
      [
        "geacc-trace 1";
        "sim euclidean 2 1";
        "batch 1 0 must";
        "event-open 1 1 0";
        "user-arrive 1 0.9 0.1";
        "end";
        "batch 2 1 must";
        "user-depart 7";
        "end";
      ]
  in
  with_tmpdir (fun dir ->
      let config = Serve_loop.default ~state_dir:dir in
      let first = run_ok config trace in
      Alcotest.(check int) "tail batch rejected" 1 first.Serve_loop.errors;
      let second = run_ok config trace in
      Alcotest.(check int)
        "restart skips the journaled reject" 0 second.Serve_loop.errors;
      Alcotest.(check int) "both batches skipped" 2 second.Serve_loop.skipped;
      (* The critical step: a third run's journal recovery must still
         succeed — a duplicate seq would brick it here. *)
      let third = run_ok config trace in
      Alcotest.(check string)
        "digest stable across restarts" second.Serve_loop.digest
        third.Serve_loop.digest)

(* The snapshot cadence counts journal appends, so a stream of rejected
   batches (which never advance [applied]) still truncates the journal. *)
let test_rejected_batches_bound_the_journal () =
  let bad seq =
    [ Printf.sprintf "batch %d %d must" seq (seq - 1); "user-depart 7"; "end" ]
  in
  let trace =
    parsed_trace
      ([
         "geacc-trace 1";
         "sim euclidean 2 1";
         "batch 1 0 must";
         "event-open 1 1 0";
         "user-arrive 1 0.9 0.1";
         "end";
       ]
      @ List.concat_map bad [ 2; 3; 4; 5; 6; 7 ])
  in
  with_tmpdir (fun dir ->
      let config =
        {
          (Serve_loop.default ~state_dir:dir) with
          Serve_loop.snapshot_every = 2;
        }
      in
      let first = run_ok config trace in
      Alcotest.(check int) "rejects counted" 6 first.Serve_loop.errors;
      Alcotest.(check int)
        "snapshots kept firing" 3 first.Serve_loop.snapshots;
      let second = run_ok config trace in
      Alcotest.(check int)
        "bounded backlog on restart" 1 second.Serve_loop.replayed;
      Alcotest.(check int)
        "nothing re-admitted" 7 second.Serve_loop.skipped;
      Alcotest.(check string)
        "digest stable" first.Serve_loop.digest second.Serve_loop.digest)

(* Snapshots can now be taken while a repair is pending, so the dirty
   bound must survive the save/load round-trip — otherwise recovery would
   replay from the stale cursor, above the first changed walk. *)
let test_state_dirty_survives_save_load () =
  let state = built_state () in
  let attrs =
    match Serve_state.instance state with
    | Some inst -> (Geacc_core.Instance.users inst).(0).Geacc_core.Entity.attrs
    | None -> Alcotest.fail "built state has no instance"
  in
  let apply seq ops =
    match
      Serve_state.apply_batch state { Trace.seq; ts = 0.; tier = Trace.Must; ops }
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "apply: %s" (Error.to_string e)
  in
  let u = Serve_state.n_users state in
  apply (Serve_state.seq state + 1) [ Trace.User_arrive { capacity = 1; attrs } ];
  Serve_state.commit state
    (Serve_state.repair state ~deadline:Geacc_robust.Budget.unlimited);
  (* Depart the newest user without repairing: dirty sits below cursor. *)
  apply (Serve_state.seq state + 1) [ Trace.User_depart u ];
  Alcotest.(check int) "dirty below cursor" u (Serve_state.dirty_from state);
  with_tmpdir (fun dir ->
      let back = reload ~path:(Filename.concat dir "snapshot.geacc") state in
      Alcotest.(check int)
        "dirty bound survives the round-trip"
        (Serve_state.dirty_from state)
        (Serve_state.dirty_from back))

let test_recovery_is_idempotent () =
  (* Re-running the full trace against an already-complete state skips every
     batch and changes nothing. *)
  let trace = tiny_trace () in
  with_tmpdir (fun dir ->
      let config = Serve_loop.default ~state_dir:dir in
      let first = run_ok config trace in
      let second = run_ok config trace in
      Alcotest.(check string)
        "digest unchanged" first.Serve_loop.digest second.Serve_loop.digest;
      Alcotest.(check int) "nothing re-applied" 0 second.Serve_loop.applied;
      Alcotest.(check int)
        "everything skipped" first.Serve_loop.batches
        second.Serve_loop.skipped)

let suite =
  [
    Alcotest.test_case "trace: save/parse fixpoint" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace: ts groups" `Quick test_trace_groups;
    Alcotest.test_case "trace: batch block round-trip" `Quick
      test_batch_roundtrip;
    Alcotest.test_case "journal: round-trip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal: missing file is empty" `Quick
      test_journal_missing_is_empty;
    Alcotest.test_case "journal: torn tail dropped" `Quick
      test_journal_torn_tail_dropped;
    Alcotest.test_case "journal: crc corruption rejected" `Quick
      test_journal_corruption_rejected;
    Alcotest.test_case "journal: seq regression rejected" `Quick
      test_journal_seq_regression_rejected;
    Alcotest.test_case "state: save/load round-trip" `Quick test_state_save_load;
    Alcotest.test_case "state: invalid batches rejected" `Quick
      test_state_rejects_bad_batches;
    Alcotest.test_case "snapshot: round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot: corruption rejected" `Quick
      test_snapshot_corruption_rejected;
    Alcotest.test_case "snapshot: v3 round-trip, appends only arrivals" `Quick
      test_snapshot_v3_roundtrip;
    Alcotest.test_case "snapshot: mutable part holds integers only" `Quick
      test_snapshot_mutable_part_is_integers;
    Alcotest.test_case "snapshot: torn segment tail ignored, then cut" `Quick
      test_snapshot_torn_tail;
    Alcotest.test_case "snapshot: segment crc, short prefix, missing" `Quick
      test_snapshot_segment_errors;
    Alcotest.test_case "snapshot: v2 state directory migrates" `Quick
      test_snapshot_v2_migration;
    Alcotest.test_case "exact: every batch equals a full replay" `Quick
      test_exact_generated;
    Alcotest.test_case "exact: capacity lowered and raised" `Quick
      test_rule_capacity;
    Alcotest.test_case "exact: close starts an eviction chain" `Quick
      test_rule_close_eviction_chain;
    Alcotest.test_case "exact: fill holder departs" `Quick
      test_rule_fill_holder_departs;
    Alcotest.test_case "exact: conflict on a held event" `Quick
      test_rule_conflict;
    Alcotest.test_case "exact: event opens mid-stream" `Quick
      test_rule_event_open;
    Alcotest.test_case "exact: cut repair finished next batch" `Quick
      test_cut_then_finish;
    Alcotest.test_case "exact: snapshot with a pending repair" `Quick
      test_load_pending;
    Alcotest.test_case "state: user NN source kept across batches" `Quick
      test_user_source_shared;
    Alcotest.test_case "audit: non-canonical commit refused" `Quick
      test_audit_catches_noncanonical;
    Alcotest.test_case "admission: tier outranks arrival" `Quick
      test_admission_tier_order;
    Alcotest.test_case "admission: musts always pass" `Quick
      test_admission_must_overflows;
    Alcotest.test_case "admission: degraded sheds optionals" `Quick
      test_admission_degraded_sheds_optional;
    Alcotest.test_case "loop: incremental == full" `Quick
      test_incremental_equals_full;
    Alcotest.test_case "loop: deadline degrades (exit 3)" `Quick
      test_deadline_degrades;
    Alcotest.test_case "loop: shed maps to exit 3" `Quick test_shed_exit_status;
    Alcotest.test_case "loop: dropped cut repair stays repairable" `Quick
      test_dropped_cut_stays_repairable;
    Alcotest.test_case "loop: offline mode" `Quick test_offline_mode_runs_clean;
    Alcotest.test_case "loop: re-run is idempotent" `Quick
      test_recovery_is_idempotent;
    Alcotest.test_case "loop: rejected tail survives restarts" `Quick
      test_rejected_tail_survives_restarts;
    Alcotest.test_case "loop: rejects still truncate the journal" `Quick
      test_rejected_batches_bound_the_journal;
    Alcotest.test_case "state: dirty bound survives save/load" `Quick
      test_state_dirty_survives_save_load;
    Alcotest.test_case "crash sweep: every checkpoint recovers" `Slow
      test_crash_sweep;
    Alcotest.test_case "crash sweep: churn 1.0" `Slow test_crash_sweep_churn;
  ]
