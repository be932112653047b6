(* NN indexes: kd-tree vs linear-scan oracle, incremental cursor ordering,
   distance cutoffs, stream memoisation. *)

module Point = Geacc_index.Point
module Linear = Geacc_index.Linear_index
module Kd = Geacc_index.Kd_tree
module Stream = Geacc_index.Nn_stream
module Ranked = Geacc_index.Ranked
module Rng = Geacc_util.Rng

let random_points rng ~n ~d ~range =
  Array.init n (fun _ -> Array.init d (fun _ -> Rng.float rng range))

let test_point_dist () =
  Alcotest.(check (float 1e-9)) "dist2" 25. (Point.dist2 [| 0.; 3. |] [| 4.; 0. |]);
  Alcotest.(check (float 1e-9)) "dist" 5. (Point.dist [| 0.; 3. |] [| 4.; 0. |]);
  Alcotest.(check (float 1e-9)) "zero" 0. (Point.dist [| 1.; 2. |] [| 1.; 2. |])

let test_point_box () =
  let lo = [| 0.; 0. |] and hi = [| 2.; 2. |] in
  Alcotest.(check (float 1e-9)) "inside" 0.
    (Point.min_dist2_to_box [| 1.; 1. |] ~lo ~hi);
  Alcotest.(check (float 1e-9)) "outside corner" 2.
    (Point.min_dist2_to_box [| 3.; 3. |] ~lo ~hi);
  Alcotest.(check (float 1e-9)) "outside edge" 4.
    (Point.min_dist2_to_box [| 1.; 4. |] ~lo ~hi)

let test_bounding_box () =
  let points = [| [| 1.; 5. |]; [| 3.; 2. |]; [| 2.; 7. |] |] in
  let lo = Array.make 2 0. and hi = Array.make 2 0. in
  Point.bounding_box points [| 0; 1; 2 |] ~lo ~hi;
  Alcotest.(check (array (float 0.))) "lo" [| 1.; 2. |] lo;
  Alcotest.(check (array (float 0.))) "hi" [| 3.; 7. |] hi

let test_linear_ordering () =
  let points = [| [| 0. |]; [| 10. |]; [| 3. |]; [| 7. |] |] in
  let idx = Linear.create points in
  let result = Linear.nearest idx [| 4. |] ~k:4 in
  Alcotest.(check (list int)) "ascending distance" [ 2; 3; 0; 1 ]
    (Array.to_list (Array.map fst result))

let test_linear_ties_by_index () =
  let points = [| [| 1. |]; [| -1. |]; [| 1. |] |] in
  let idx = Linear.create points in
  let result = Linear.nearest idx [| 0. |] ~k:3 in
  Alcotest.(check (list int)) "ties broken by id" [ 0; 1; 2 ]
    (Array.to_list (Array.map fst result))

let test_linear_nth () =
  let points = [| [| 0. |]; [| 2. |]; [| 5. |] |] in
  let idx = Linear.create points in
  (match Linear.nth_nearest idx [| 1. |] 2 with
  | Some (i, d) ->
      Alcotest.(check int) "2nd nearest" 1 i;
      Alcotest.(check (float 1e-9)) "distance" 1. d
  | None -> Alcotest.fail "expected a 2nd NN");
  Alcotest.(check bool) "rank beyond size" true
    (Linear.nth_nearest idx [| 1. |] 4 = None)

let test_linear_within () =
  let points = [| [| 0. |]; [| 2. |]; [| 5. |] |] in
  let idx = Linear.create points in
  let r = Linear.nearest_within idx [| 0. |] ~k:3 ~max_dist:5. in
  Alcotest.(check (list int)) "strictly inside cutoff" [ 0; 1 ]
    (Array.to_list (Array.map fst r))

let check_kd_matches_linear ~n ~d ~seed =
  let rng = Rng.create ~seed in
  let points = random_points rng ~n ~d ~range:100. in
  let linear = Linear.create points and tree = Kd.build ~leaf_size:4 points in
  for _ = 1 to 20 do
    let q = Array.init d (fun _ -> Rng.float rng 100.) in
    let k = 1 + Rng.int rng n in
    let expected = Linear.nearest linear q ~k in
    let actual = Kd.nearest tree q ~k in
    Alcotest.(check (list int))
      (Printf.sprintf "k=%d identical neighbour ids" k)
      (Array.to_list (Array.map fst expected))
      (Array.to_list (Array.map fst actual));
    Array.iteri
      (fun i (_, dist) ->
        Alcotest.(check (float 1e-9)) "identical distances" (snd expected.(i))
          dist)
      actual
  done

let test_kd_matches_linear_2d () = check_kd_matches_linear ~n:200 ~d:2 ~seed:1
let test_kd_matches_linear_high_d () = check_kd_matches_linear ~n:150 ~d:20 ~seed:2
let test_kd_matches_linear_1d () = check_kd_matches_linear ~n:50 ~d:1 ~seed:3

let test_kd_empty_and_tiny () =
  let tree = Kd.build [||] in
  Alcotest.(check int) "empty size" 0 (Kd.size tree);
  Alcotest.(check int) "no neighbours" 0 (Array.length (Kd.nearest tree [| 0. |] ~k:3));
  let one = Kd.build [| [| 5. |] |] in
  let r = Kd.nearest one [| 0. |] ~k:5 in
  Alcotest.(check int) "single point" 1 (Array.length r);
  Alcotest.(check int) "its id" 0 (fst r.(0))

let test_kd_duplicate_points () =
  let points = Array.make 10 [| 3.; 3. |] in
  let tree = Kd.build ~leaf_size:2 points in
  let r = Kd.nearest tree [| 3.; 3. |] ~k:10 in
  Alcotest.(check (list int)) "all duplicates, id order"
    (List.init 10 Fun.id)
    (Array.to_list (Array.map fst r))

let test_cursor_streams_in_order () =
  let rng = Rng.create ~seed:4 in
  let points = random_points rng ~n:300 ~d:3 ~range:10. in
  let tree = Kd.build points in
  let c = Kd.cursor tree [| 5.; 5.; 5. |] () in
  let last = ref neg_infinity in
  let count = ref 0 in
  let rec drain () =
    match Kd.next c with
    | None -> ()
    | Some (_, d) ->
        Alcotest.(check bool) "ascending" true (d >= !last);
        last := d;
        incr count;
        drain ()
  in
  drain ();
  Alcotest.(check int) "every point enumerated once" 300 !count;
  Alcotest.(check int) "returned counter" 300 (Kd.returned c)

let test_cursor_max_dist () =
  let points = [| [| 0. |]; [| 1. |]; [| 2. |]; [| 5. |] |] in
  let tree = Kd.build points in
  let c = Kd.cursor tree [| 0. |] ~max_dist:2. () in
  let ids = ref [] in
  let rec drain () =
    match Kd.next c with
    | None -> ()
    | Some (i, _) ->
        ids := i :: !ids;
        drain ()
  in
  drain ();
  (* Distance 2 is excluded: the cutoff is exclusive. *)
  Alcotest.(check (list int)) "strictly within" [ 0; 1 ] (List.rev !ids)

let test_stream_random_access () =
  let rng = Rng.create ~seed:5 in
  let points = random_points rng ~n:100 ~d:2 ~range:10. in
  let tree = Kd.build points in
  let linear = Linear.create points in
  let q = [| 3.; 3. |] in
  let s = Stream.create tree q () in
  (* Jump around ranks; results must match the oracle at every rank. *)
  List.iter
    (fun rank ->
      match (Ranked.get s rank, Linear.nth_nearest linear q rank) with
      | Some (i, d), Some (i', d') ->
          Alcotest.(check int) (Printf.sprintf "rank %d id" rank) i' i;
          Alcotest.(check (float 1e-9)) "rank distance" d' d
      | None, None -> ()
      | _ -> Alcotest.fail "stream and oracle disagree on existence")
    [ 5; 1; 50; 3; 100; 99; 2 ];
  Alcotest.(check bool) "rank beyond size" true (Ranked.get s 101 = None);
  Alcotest.(check int) "known counts materialised prefix" 100 (Ranked.known s)

let test_stream_bulk_high_dimension () =
  (* At d = 20 best-first search stops pruning, so the stream switches
     from the cursor to a scan early; the served order must still match
     the oracle exactly. *)
  let rng = Rng.create ~seed:7 in
  let points = random_points rng ~n:300 ~d:20 ~range:100. in
  let tree = Kd.build points in
  let linear = Linear.create points in
  let q = Array.init 20 (fun _ -> Rng.float rng 100.) in
  let s = Stream.create tree q () in
  List.iter
    (fun rank ->
      match (Ranked.get s rank, Linear.nth_nearest linear q rank) with
      | Some (i, d), Some (i', d') ->
          Alcotest.(check int) (Printf.sprintf "bulk rank %d" rank) i' i;
          Alcotest.(check (float 1e-9)) "bulk distance" d' d
      | None, None -> ()
      | _ -> Alcotest.fail "bulk stream and oracle disagree")
    [ 1; 7; 2; 300; 150; 299; 1 ];
  Alcotest.(check bool) "beyond size" true (Ranked.get s 301 = None)

let test_stream_switch_threshold_zero () =
  (* Forcing bulk on first access must not change any answer. *)
  let rng = Rng.create ~seed:8 in
  let points = random_points rng ~n:120 ~d:3 ~range:10. in
  let tree = Kd.build points in
  let q = [| 1.; 2.; 3. |] in
  let lazy_s = Stream.create tree q () in
  let eager_s = Stream.create tree q ~switch_threshold:0 () in
  for rank = 1 to 120 do
    Alcotest.(check bool)
      (Printf.sprintf "rank %d agrees across regimes" rank)
      true
      (Ranked.get lazy_s rank = Ranked.get eager_s rank)
  done

let test_stream_sequential_advance_crosses_switch () =
  (* Rank-by-rank advance across the switch threshold (the Greedy access
     pattern) stays consistent with the oracle. *)
  let rng = Rng.create ~seed:9 in
  let points = random_points rng ~n:200 ~d:4 ~range:10. in
  let tree = Kd.build points in
  let linear = Linear.create points in
  let q = Array.init 4 (fun _ -> Rng.float rng 10.) in
  let s = Stream.create tree q ~switch_threshold:16 () in
  for rank = 1 to 200 do
    match (Ranked.get s rank, Linear.nth_nearest linear q rank) with
    | Some (i, _), Some (i', _) ->
        Alcotest.(check int) (Printf.sprintf "rank %d" rank) i' i
    | None, None -> ()
    | _ -> Alcotest.fail "existence disagreement"
  done

let test_stream_cutoff_in_bulk_mode () =
  let points = Array.init 50 (fun i -> Array.make 20 (float_of_int i)) in
  let tree = Kd.build points in
  (* Query at the origin; cutoff excludes points with coordinate >= 5 —
     distance of point i is i * sqrt 20. Point 5 sits exactly on the cutoff
     (sqrt 500 = 5 *. sqrt 20 in floating point, while the square of the
     cutoff rounds above 500), so the cursor (50 points never trip the
     work signal) and the scan must both drop it. *)
  List.iter
    (fun switch_threshold ->
      let s =
        Stream.create tree (Array.make 20 0.) ~max_dist:(5. *. sqrt 20.)
          ~switch_threshold ()
      in
      Alcotest.(check bool) "rank 5 exists" true (Ranked.get s 5 <> None);
      Alcotest.(check bool) "rank 6 beyond cutoff" true (Ranked.get s 6 = None))
    [ 64; 0 ]

let test_stream_cutoff () =
  let points = [| [| 0. |]; [| 3. |]; [| 9. |] |] in
  let tree = Kd.build points in
  let s = Stream.create tree [| 0. |] ~max_dist:5. () in
  Alcotest.(check bool) "rank 1" true (Ranked.get s 1 <> None);
  Alcotest.(check bool) "rank 2" true (Ranked.get s 2 <> None);
  Alcotest.(check bool) "rank 3 beyond cutoff" true (Ranked.get s 3 = None)

(* QCheck property: streams agree with the oracle for any (n, d, threshold),
   covering the cursor regime, the bulk regime and the switch between. *)
let prop_stream_matches_oracle =
  QCheck.Test.make ~name:"nn stream = linear oracle across regimes" ~count:60
    QCheck.(triple (int_range 1 80) (int_range 1 24) (int_range 0 30))
    (fun (n, d, threshold) ->
      let rng = Rng.create ~seed:(n + (37 * d) + (1009 * threshold)) in
      let points = random_points rng ~n ~d ~range:50. in
      let tree = Kd.build ~leaf_size:3 points in
      let linear = Linear.create points in
      let q = Array.init d (fun _ -> Rng.float rng 50.) in
      let s = Stream.create tree q ~switch_threshold:threshold () in
      let ok = ref true in
      for rank = 1 to n + 1 do
        let expected = Linear.nth_nearest linear q rank in
        let actual = Ranked.get s rank in
        (match (expected, actual) with
        | Some (i, _), Some (i', _) when i = i' -> ()
        | None, None -> ()
        | _ -> ok := false)
      done;
      !ok)

(* QCheck property: a Ranked list over keys with many ties serves the
   List.sort order at every rank, asked in random order and past the last
   kept target — as a scan, as a memo fed in order, and as a memo that
   turns into a scan part-way. *)
let prop_ranked_matches_sort =
  QCheck.Test.make ~name:"ranked scan and memo = List.sort oracle" ~count:200
    QCheck.(triple (int_range 0 200) (int_range 1 6) (int_bound 9999))
    (fun (n, distinct, seed) ->
      let rng = Rng.create ~seed in
      let keys = Array.init n (fun _ -> float_of_int (Rng.int rng distinct)) in
      let cutoff = float_of_int (Rng.int rng (distinct + 1)) in
      let key i = keys.(i) in
      let oracle =
        List.init n (fun i -> (i, keys.(i)))
        |> List.filter (fun (_, k) -> k < cutoff)
        |> List.sort (fun (i1, k1) (i2, k2) ->
               let c = Float.compare k1 k2 in
               if c <> 0 then c else Int.compare i1 i2)
        |> Array.of_list
      in
      let fed ~switch_at =
        let next = ref 0 in
        Ranked.memo (fun r rank ->
            if rank > switch_at then begin
              Ranked.rescan r ~n ~cutoff key;
              true
            end
            else if !next < Array.length oracle then begin
              let i, k = oracle.(!next) in
              incr next;
              Ranked.push r i k;
              true
            end
            else false)
      in
      let lists =
        [
          Ranked.scan ~n ~cutoff key;
          fed ~switch_at:max_int;
          fed ~switch_at:(Rng.int rng (n + 1));
        ]
      in
      let ranks = Array.init (n + 3) (fun k -> k + 1) in
      Rng.shuffle_in_place rng ranks;
      Array.for_all
        (fun rank ->
          let expected =
            if rank <= Array.length oracle then Some oracle.(rank - 1) else None
          in
          List.for_all (fun l -> Ranked.get l rank = expected) lists)
        ranks)

(* QCheck property: kd-tree enumeration = sorted linear distances. *)
let prop_kd_full_enumeration =
  QCheck.Test.make ~name:"kd cursor enumerates exactly the sorted scan"
    ~count:50
    QCheck.(pair (int_range 1 60) (int_range 1 5))
    (fun (n, d) ->
      let rng = Rng.create ~seed:(n + (100 * d)) in
      let points = random_points rng ~n ~d ~range:50. in
      let tree = Kd.build ~leaf_size:3 points in
      let linear = Linear.create points in
      let q = Array.init d (fun _ -> Rng.float rng 50.) in
      let expected = Array.map fst (Linear.nearest linear q ~k:n) in
      let c = Kd.cursor tree q () in
      let actual = Array.init n (fun _ ->
          match Kd.next c with Some (i, _) -> i | None -> -1)
      in
      expected = actual)

let suite =
  [
    Alcotest.test_case "point distances" `Quick test_point_dist;
    Alcotest.test_case "point-box distance" `Quick test_point_box;
    Alcotest.test_case "bounding box" `Quick test_bounding_box;
    Alcotest.test_case "linear ordering" `Quick test_linear_ordering;
    Alcotest.test_case "linear ties by index" `Quick test_linear_ties_by_index;
    Alcotest.test_case "linear nth_nearest" `Quick test_linear_nth;
    Alcotest.test_case "linear nearest_within" `Quick test_linear_within;
    Alcotest.test_case "kd = linear (2d)" `Quick test_kd_matches_linear_2d;
    Alcotest.test_case "kd = linear (d=20)" `Quick test_kd_matches_linear_high_d;
    Alcotest.test_case "kd = linear (1d)" `Quick test_kd_matches_linear_1d;
    Alcotest.test_case "kd empty/tiny" `Quick test_kd_empty_and_tiny;
    Alcotest.test_case "kd duplicate points" `Quick test_kd_duplicate_points;
    Alcotest.test_case "cursor ascending order" `Quick
      test_cursor_streams_in_order;
    Alcotest.test_case "cursor max_dist exclusive" `Quick test_cursor_max_dist;
    Alcotest.test_case "stream random access" `Quick test_stream_random_access;
    Alcotest.test_case "stream cutoff" `Quick test_stream_cutoff;
    Alcotest.test_case "stream bulk (high-d)" `Quick
      test_stream_bulk_high_dimension;
    Alcotest.test_case "stream threshold zero" `Quick
      test_stream_switch_threshold_zero;
    Alcotest.test_case "stream sequential across switch" `Quick
      test_stream_sequential_advance_crosses_switch;
    Alcotest.test_case "stream cutoff in bulk mode" `Quick
      test_stream_cutoff_in_bulk_mode;
    QCheck_alcotest.to_alcotest prop_kd_full_enumeration;
    QCheck_alcotest.to_alcotest prop_stream_matches_oracle;
    QCheck_alcotest.to_alcotest prop_ranked_matches_sort;
  ]
