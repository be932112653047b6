(* Serialisation: round-trips, format fidelity, malformed-input errors. *)

open Geacc_core
module Io = Geacc_io.Instance_io
module Synthetic = Geacc_datagen.Synthetic

let instances_equal a b =
  Instance.n_events a = Instance.n_events b
  && Instance.n_users a = Instance.n_users b
  && Array.for_all2
       (fun (x : Entity.t) (y : Entity.t) ->
         x.Entity.capacity = y.Entity.capacity && x.Entity.attrs = y.Entity.attrs)
       (Instance.events a) (Instance.events b)
  && Array.for_all2
       (fun (x : Entity.t) (y : Entity.t) ->
         x.Entity.capacity = y.Entity.capacity && x.Entity.attrs = y.Entity.attrs)
       (Instance.users a) (Instance.users b)
  &&
  let pairs cf =
    let acc = ref [] in
    Conflict.iter_pairs cf (fun v w -> acc := (v, w) :: !acc);
    List.sort compare !acc
  in
  pairs (Instance.conflicts a) = pairs (Instance.conflicts b)
  && Similarity.spec (Instance.similarity a)
     = Similarity.spec (Instance.similarity b)

let test_instance_roundtrip () =
  let t =
    Synthetic.generate ~seed:1
      { Synthetic.default with Synthetic.n_events = 10; n_users = 25; dim = 3 }
  in
  let t' = Io.load_instance (Io.save_instance t) in
  Alcotest.(check bool) "round-trip preserves everything" true
    (instances_equal t t');
  (* Similarities agree numerically on a sample pair. *)
  Alcotest.(check (float 1e-12)) "sim identical" (Instance.sim t ~v:3 ~u:7)
    (Instance.sim t' ~v:3 ~u:7)

let test_instance_roundtrip_other_sims () =
  let mk sim =
    let e = [| Entity.make ~id:0 ~attrs:[| 0.25; 0.5 |] ~capacity:2 |] in
    let u =
      [|
        Entity.make ~id:0 ~attrs:[| 0.5; 0.5 |] ~capacity:1;
        Entity.make ~id:1 ~attrs:[| 0.; 1. |] ~capacity:1;
      |]
    in
    Instance.create ~sim ~events:e ~users:u
      ~conflicts:(Conflict.create ~n_events:1) ()
  in
  List.iter
    (fun sim ->
      let t = mk sim in
      Alcotest.(check bool)
        (Similarity.name sim ^ " round-trips")
        true
        (instances_equal t (Io.load_instance (Io.save_instance t))))
    [ Similarity.gaussian ~sigma:0.7; Similarity.cosine ]

let test_custom_sim_not_serialisable () =
  let sim = Similarity.custom ~name:"opaque" (fun _ _ -> 1.) in
  let e = [| Entity.make ~id:0 ~attrs:[| 0. |] ~capacity:1 |] in
  let t =
    Instance.create ~sim ~events:e ~users:e
      ~conflicts:(Conflict.create ~n_events:1) ()
  in
  Alcotest.(check bool) "custom similarity rejected" true
    (try
       ignore (Io.save_instance t);
       false
     with Invalid_argument _ -> true)

let test_file_roundtrip () =
  let t =
    Synthetic.generate ~seed:2
      { Synthetic.default with Synthetic.n_events = 5; n_users = 8; dim = 2 }
  in
  let path = Filename.temp_file "geacc_test" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_instance ~path t;
      Alcotest.(check bool) "file round-trip" true
        (instances_equal t (Io.read_instance ~path)))

let test_pairs_roundtrip () =
  let pairs = [ (0, 3); (2, 1); (4, 4) ] in
  Alcotest.(check (list (pair int int))) "pairs round-trip" pairs
    (Io.load_pairs (Io.save_pairs pairs));
  Alcotest.(check (list (pair int int))) "empty matching" []
    (Io.load_pairs (Io.save_pairs []))

let test_comments_and_blanks_ignored () =
  let text =
    "# a comment\n\ngeacc-matching 1\n  pairs 1  \n# another\n3 4\n\n"
  in
  Alcotest.(check (list (pair int int))) "lenient whitespace" [ (3, 4) ]
    (Io.load_pairs text)

let expect_parse_error text =
  try
    ignore (Io.load_pairs text);
    false
  with Io.Parse_error _ -> true

let expect_instance_error text =
  try
    ignore (Io.load_instance text);
    false
  with Io.Parse_error _ -> true

let test_malformed_inputs () =
  Alcotest.(check bool) "bad magic" true (expect_parse_error "nonsense 1\npairs 0\n");
  Alcotest.(check bool) "missing count" true
    (expect_parse_error "geacc-matching 1\npairs\n");
  Alcotest.(check bool) "non-integer pair" true
    (expect_parse_error "geacc-matching 1\npairs 1\nx y\n");
  Alcotest.(check bool) "truncated" true
    (expect_parse_error "geacc-matching 1\npairs 2\n0 0\n");
  Alcotest.(check bool) "trailing garbage" true
    (expect_parse_error "geacc-matching 1\npairs 1\n0 0\nleftover\n")

let test_malformed_instances () =
  Alcotest.(check bool) "bad sim" true
    (expect_instance_error "geacc-instance 1\nsim nonsense\nevents 0\nusers 0\nconflicts 0\n");
  Alcotest.(check bool) "bad entity line" true
    (expect_instance_error
       "geacc-instance 1\nsim euclidean 1 1\nevents 1\nnot-a-number 0.5\nusers 0\nconflicts 0\n");
  Alcotest.(check bool) "conflict out of range" true
    (expect_instance_error
       "geacc-instance 1\nsim euclidean 1 1\nevents 1\n1 0.5\nusers 1\n1 0.5\nconflicts 1\n0 5\n");
  Alcotest.(check bool) "missing section" true
    (expect_instance_error "geacc-instance 1\nsim euclidean 1 1\nusers 0\n")

(* Hardened instance validation: each rejection carries the offending line
   and a message precise enough to pin. *)
let expect_instance_error_message text ~line ~needle =
  match Io.load_instance text with
  | _ -> Alcotest.failf "accepted instance with %s" needle
  | exception Io.Parse_error { line = l; message } ->
      Alcotest.(check int) (needle ^ ": line") line l;
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" message needle)
        true (contains message needle)

let test_rejects_non_finite_attributes () =
  List.iter
    (fun bad ->
      expect_instance_error_message
        (Printf.sprintf
           "geacc-instance 1\nsim euclidean 1 1\nevents 1\n1 %s\nusers 1\n1 \
            0.5\nconflicts 0\n"
           bad)
        ~line:4 ~needle:"not finite")
    [ "nan"; "inf"; "-inf" ]

let test_rejects_negative_capacity () =
  expect_instance_error_message
    "geacc-instance 1\nsim euclidean 1 1\nevents 1\n-2 0.5\nusers 1\n1 0.5\nconflicts 0\n"
    ~line:4 ~needle:"capacity -2 is negative"

let two_event_prefix =
  "geacc-instance 1\nsim euclidean 1 1\nevents 2\n1 0.5\n1 0.25\nusers 1\n1 0.5\nconflicts "

let test_rejects_bad_conflicts () =
  expect_instance_error_message
    (two_event_prefix ^ "1\n0 0\n")
    ~line:9 ~needle:"conflicts with itself";
  expect_instance_error_message
    (two_event_prefix ^ "1\n0 2\n")
    ~line:9 ~needle:"out of range";
  expect_instance_error_message
    (two_event_prefix ^ "1\n-1 0\n")
    ~line:9 ~needle:"out of range";
  expect_instance_error_message
    (two_event_prefix ^ "2\n0 1\n1 0\n")
    ~line:10 ~needle:"duplicate conflict pair"

(* Similarity headers: only finite parameters with d >= 1, T > 0 and
   sigma > 0 (and a representable squared scale) load; the rest name the
   header's line instead of loading NaN or constant similarities or
   escaping as Invalid_argument. *)
let test_rejects_bad_similarity () =
  let instance sim =
    Printf.sprintf
      "geacc-instance 1\n# header\nsim %s\nevents 1\n1 0.5 0.5\nusers 1\n1 \
       0.5 0.5\nconflicts 0\n"
      sim
  in
  List.iter
    (fun (sim, needle) ->
      expect_instance_error_message (instance sim) ~line:3 ~needle)
    [
      ("euclidean 2 nan", "range \"nan\" is not a positive finite number");
      ("euclidean 2 inf", "range \"inf\" is not a positive finite number");
      ("euclidean 2 -1", "range \"-1\" is not a positive finite number");
      ("euclidean 2 0", "range \"0\" is not a positive finite number");
      ("euclidean 0 1", "dimension 0 is not positive");
      ("euclidean -3 1", "dimension -3 is not positive");
      ("euclidean 2 1e200", "squared scale");
      ("gaussian nan", "sigma \"nan\" is not a positive finite number");
      ("gaussian inf", "sigma \"inf\" is not a positive finite number");
      ("gaussian 0", "sigma \"0\" is not a positive finite number");
      ("gaussian -0.5", "sigma \"-0.5\" is not a positive finite number");
      ("gaussian 1e-200", "squared scale");
    ];
  List.iter
    (fun sim ->
      match Io.load_instance (instance sim) with
      | _ -> ()
      | exception Io.Parse_error { message; _ } ->
          Alcotest.failf "sim %s rejected: %s" sim message)
    [ "euclidean 2 1e100"; "euclidean 1 1e-100"; "gaussian 1e100"; "cosine" ]

let test_result_api () =
  (match Io.load_instance_result "geacc-instance 1\nsim nonsense\n" with
  | Error (Geacc_robust.Error.Parse_error { line; _ }) ->
      Alcotest.(check int) "error line" 2 line
  | Error e ->
      Alcotest.failf "unexpected error %s" (Geacc_robust.Error.to_string e)
  | Ok _ -> Alcotest.fail "bad instance accepted");
  match Io.read_instance_result ~path:"/nonexistent/geacc.inst" with
  | Error (Geacc_robust.Error.Io_error { path; _ }) ->
      Alcotest.(check string) "path carried" "/nonexistent/geacc.inst" path
  | Error e ->
      Alcotest.failf "unexpected error %s" (Geacc_robust.Error.to_string e)
  | Ok _ -> Alcotest.fail "nonexistent file read"

let test_parse_error_carries_line () =
  try
    ignore (Io.load_pairs "geacc-matching 1\npairs 1\nbad line\n")
  with Io.Parse_error { line; _ } ->
    Alcotest.(check int) "line number" 3 line

let suite =
  [
    Alcotest.test_case "instance round-trip" `Quick test_instance_roundtrip;
    Alcotest.test_case "other similarities round-trip" `Quick
      test_instance_roundtrip_other_sims;
    Alcotest.test_case "custom sim not serialisable" `Quick
      test_custom_sim_not_serialisable;
    Alcotest.test_case "file round-trip" `Quick test_file_roundtrip;
    Alcotest.test_case "pairs round-trip" `Quick test_pairs_roundtrip;
    Alcotest.test_case "comments and blanks" `Quick
      test_comments_and_blanks_ignored;
    Alcotest.test_case "malformed matchings" `Quick test_malformed_inputs;
    Alcotest.test_case "malformed instances" `Quick test_malformed_instances;
    Alcotest.test_case "parse error line numbers" `Quick
      test_parse_error_carries_line;
    Alcotest.test_case "rejects non-finite attributes" `Quick
      test_rejects_non_finite_attributes;
    Alcotest.test_case "rejects negative capacities" `Quick
      test_rejects_negative_capacity;
    Alcotest.test_case "rejects bad conflict pairs" `Quick
      test_rejects_bad_conflicts;
    Alcotest.test_case "rejects bad similarity headers" `Quick
      test_rejects_bad_similarity;
    Alcotest.test_case "result api" `Quick test_result_api;
  ]
