(* Neighbour lists: the Ranked scan against List.sort and the linear-scan
   oracle under every access pattern (in order, out of order, across its
   sorted chunks), an instance's neighbour lists and candidate queries
   against the oracle, distance cutoffs. *)

module Point = Geacc_index.Point
module Linear = Geacc_index.Linear_index
module Ranked = Geacc_index.Ranked
module Rng = Geacc_util.Rng
open Geacc_core
module Synthetic = Geacc_datagen.Synthetic

let test_point_dist () =
  Alcotest.(check (float 1e-9)) "dist2" 25. (Point.dist2 [| 0.; 3. |] [| 4.; 0. |]);
  Alcotest.(check (float 1e-9)) "dist" 5. (Point.dist [| 0.; 3. |] [| 4.; 0. |]);
  Alcotest.(check (float 1e-9)) "zero" 0. (Point.dist [| 1.; 2. |] [| 1.; 2. |])

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

(* A neighbour list keyed by distance, as an instance's lists are. *)
let dist_scan points ~query ~max_dist =
  Ranked.scan ~n:(Array.length points) ~cutoff:max_dist (fun i ->
      Point.dist query points.(i))

let random_points rng ~n ~d ~range =
  Array.init n (fun _ -> Array.init d (fun _ -> Rng.float rng range))

(* Drain a list rank by rank until its first missing rank. *)
let drain s f =
  let rec go rank =
    match Ranked.get s rank with
    | None -> ()
    | Some (i, d) ->
        f i d;
        go (rank + 1)
  in
  go 1

let test_cursor_streams_in_order () =
  let rng = Rng.create ~seed:4 in
  let points = random_points rng ~n:300 ~d:3 ~range:10. in
  let s = dist_scan points ~query:[| 5.; 5.; 5. |] ~max_dist:infinity in
  let last = ref neg_infinity and seen = Array.make 300 0 in
  drain s (fun i d ->
      Alcotest.(check bool) "ascending" true (d >= !last);
      last := d;
      seen.(i) <- seen.(i) + 1);
  Alcotest.(check bool) "every point enumerated once" true
    (Array.for_all (( = ) 1) seen);
  Alcotest.(check int) "known counts the sorted prefix" 300 (Ranked.known s)

let test_cursor_max_dist () =
  let points = [| [| 0. |]; [| 1. |]; [| 2. |]; [| 5. |] |] in
  let s = dist_scan points ~query:[| 0. |] ~max_dist:2. in
  let ids = ref [] in
  drain s (fun i _ -> ids := i :: !ids);
  (* Distance 2 is excluded: the cutoff is exclusive. *)
  Alcotest.(check (list int)) "strictly within" [ 0; 1 ] (List.rev !ids)

(* The served (id, distance) at each rank, in the given order, against
   [Linear.nth_nearest]. *)
let check_ranks_against_oracle s linear q ranks =
  List.iter
    (fun rank ->
      match (Ranked.get s rank, Linear.nth_nearest linear q rank) with
      | Some (i, d), Some (i', d') ->
          Alcotest.(check int) (Printf.sprintf "rank %d id" rank) i' i;
          Alcotest.(check (float 1e-9)) "rank distance" d' d
      | None, None -> ()
      | _ -> Alcotest.fail "list and oracle disagree on existence")
    ranks

let test_stream_random_access () =
  let rng = Rng.create ~seed:5 in
  let points = random_points rng ~n:100 ~d:2 ~range:10. in
  let q = [| 3.; 3. |] in
  let s = dist_scan points ~query:q ~max_dist:infinity in
  (* Jump around ranks; results must match the oracle at every rank. *)
  check_ranks_against_oracle s (Linear.create points) q [ 5; 1; 50; 3; 100; 99; 2 ];
  Alcotest.(check bool) "rank beyond size" true (Ranked.get s 101 = None);
  Alcotest.(check int) "known counts materialised prefix" 100 (Ranked.known s)

let test_stream_bulk_high_dimension () =
  (* d = 20, the benchmark's dimension: the served order must match the
     oracle exactly, asked out of order and at both ends. *)
  let rng = Rng.create ~seed:7 in
  let points = random_points rng ~n:300 ~d:20 ~range:100. in
  let q = Array.init 20 (fun _ -> Rng.float rng 100.) in
  let s = dist_scan points ~query:q ~max_dist:infinity in
  check_ranks_against_oracle s (Linear.create points) q [ 1; 7; 2; 300; 150; 299; 1 ];
  Alcotest.(check bool) "beyond size" true (Ranked.get s 301 = None)

let test_stream_switch_threshold_zero () =
  (* Asking the last rank first sorts the whole list in one extension; a
     list advanced rank by rank sorts it chunk by chunk. The access pattern
     must not change any answer. *)
  let rng = Rng.create ~seed:8 in
  let points = random_points rng ~n:120 ~d:3 ~range:10. in
  let q = [| 1.; 2.; 3. |] in
  let lazy_s = dist_scan points ~query:q ~max_dist:infinity in
  let eager_s = dist_scan points ~query:q ~max_dist:infinity in
  ignore (Ranked.get eager_s 120);
  Alcotest.(check int) "eager list fully sorted" 120 (Ranked.known eager_s);
  for rank = 1 to 120 do
    Alcotest.(check bool)
      (Printf.sprintf "rank %d agrees across regimes" rank)
      true
      (Ranked.get lazy_s rank = Ranked.get eager_s rank)
  done

let test_stream_sequential_advance_crosses_switch () =
  (* Rank-by-rank advance (the Greedy access pattern) crosses each switch
     from one sorted chunk to the next (ranks 32, 64 and 128 here) and
     stays consistent with the oracle. *)
  let rng = Rng.create ~seed:9 in
  let points = random_points rng ~n:200 ~d:4 ~range:10. in
  let q = Array.init 4 (fun _ -> Rng.float rng 10.) in
  let s = dist_scan points ~query:q ~max_dist:infinity in
  check_ranks_against_oracle s (Linear.create points) q (List.init 201 (fun k -> k + 1))

let test_stream_cutoff () =
  let s = dist_scan [| [| 0. |]; [| 3. |]; [| 9. |] |] ~query:[| 0. |] ~max_dist:5. in
  Alcotest.(check bool) "rank 1" true (Ranked.get s 1 <> None);
  Alcotest.(check bool) "rank 2" true (Ranked.get s 2 <> None);
  Alcotest.(check bool) "rank 3 beyond cutoff" true (Ranked.get s 3 = None)

let test_stream_cutoff_in_bulk_mode () =
  (* The cutoff is exclusive on the distance itself. Query at the origin;
     point i sits at distance i * sqrt 20. Point 5 lies exactly on the
     cutoff (sqrt 500 = 5 *. sqrt 20 in floating point, while the square of
     the cutoff rounds above 500, so comparing squares would keep it): the
     scan, which every list has been since the kd streams' switch to it
     ("bulk mode"), must drop it. *)
  let points = Array.init 50 (fun i -> Array.make 20 (float_of_int i)) in
  let s = dist_scan points ~query:(Array.make 20 0.) ~max_dist:(5. *. sqrt 20.) in
  Alcotest.(check bool) "rank 5 exists" true (Ranked.get s 5 <> None);
  Alcotest.(check bool) "rank 6 beyond cutoff" true (Ranked.get s 6 = None)

(* QCheck property: a Ranked scan over keys with many ties serves the
   List.sort order at every rank, asked in random order and past the last
   kept target. *)
let prop_ranked_matches_sort =
  QCheck.Test.make ~name:"ranked scan = List.sort oracle" ~count:200
    QCheck.(triple (int_range 0 200) (int_range 1 6) (int_bound 9999))
    (fun (n, distinct, seed) ->
      let rng = Rng.create ~seed in
      let keys = Array.init n (fun _ -> float_of_int (Rng.int rng distinct)) in
      let cutoff = float_of_int (Rng.int rng (distinct + 1)) in
      let oracle =
        List.init n (fun i -> (i, keys.(i)))
        |> List.filter (fun (_, k) -> k < cutoff)
        |> List.sort (fun (i1, k1) (i2, k2) ->
               let c = Float.compare k1 k2 in
               if c <> 0 then c else Int.compare i1 i2)
        |> Array.of_list
      in
      let list = Ranked.scan ~n ~cutoff (fun i -> keys.(i)) in
      let ranks = Array.init (n + 3) (fun k -> k + 1) in
      Rng.shuffle_in_place rng ranks;
      Array.for_all
        (fun rank ->
          let expected =
            if rank <= Array.length oracle then Some oracle.(rank - 1) else None
          in
          Ranked.get list rank = expected)
        ranks)

(* QCheck property: an instance's neighbour lists are the linear oracle's
   order. Coordinates come from a 4-value grid, so points repeat and
   distances tie; the similarity is either Equation 1 (whose cutoff is the
   grid's corner-to-corner distance, reached exactly) or a Gaussian
   (no cutoff; underflows to 0 far out). Every rank of every event and user
   is checked, through one past the last, events in ascending rank order
   and users in shuffled order: ids must equal the oracle's, similarity
   bits its distance's [sim_of_dist], and the list must end where that
   similarity stops being positive. *)
let prop_instance_neighbours =
  QCheck.Test.make ~name:"instance neighbours = linear oracle" ~count:120
    QCheck.(quad (int_range 1 12) (int_range 1 40) (int_range 1 20) (int_bound 9999))
    (fun (n_events, n_users, dim, seed) ->
      let rng = Rng.create ~seed in
      let range = 30. in
      let side n =
        Array.init n (fun id ->
            Entity.make ~id ~capacity:1
              ~attrs:
                (Array.init dim (fun _ ->
                     float_of_int (Rng.int rng 4) *. range /. 3.)))
      in
      let events = side n_events and users = side n_users in
      let sim =
        if Rng.bool rng then Similarity.euclidean ~dim ~range
        else Similarity.gaussian ~sigma:(Rng.float_in rng 5. 60.)
      in
      let profile = Option.get (Similarity.dist_profile sim) in
      let t =
        Instance.create ~sim ~events ~users
          ~conflicts:(Conflict.create ~n_events) ()
      in
      let attrs side = Array.map (fun (e : Entity.t) -> e.Entity.attrs) side in
      (* The oracle's ranks with positive similarity, as (id, sim bits). *)
      let oracle targets (q : Entity.t) =
        Linear.nearest (Linear.create (attrs targets)) q.Entity.attrs
          ~k:(Array.length targets)
        |> Array.to_list
        |> List.map (fun (i, d) -> (i, profile.Similarity.sim_of_dist d))
        |> List.filter (fun (_, s) -> s > 0.)
        |> List.map (fun (i, s) -> (i, Int64.bits_of_float s))
        |> Array.of_list
      in
      let agrees expected rank got =
        let want =
          if rank <= Array.length expected then Some expected.(rank - 1)
          else None
        in
        Option.map (fun (i, s) -> (i, Int64.bits_of_float s)) got = want
      in
      let events_ok =
        Array.for_all
          (fun (e : Entity.t) ->
            let expected = oracle users e in
            List.for_all
              (fun rank ->
                agrees expected rank
                  (Instance.event_neighbor t ~v:e.Entity.id ~rank))
              (List.init (n_users + 1) (fun k -> k + 1)))
          events
      in
      let users_ok =
        Array.for_all
          (fun (u : Entity.t) ->
            let expected = oracle events u in
            let ranks = Array.init (n_events + 1) (fun k -> k + 1) in
            Rng.shuffle_in_place rng ranks;
            Array.for_all
              (fun rank ->
                agrees expected rank
                  (Instance.user_neighbor t ~u:u.Entity.id ~rank))
              ranks)
          users
      in
      events_ok && users_ok)

(* Equal similarities at distinct distances rank by id on both sides. A
   Gaussian flattens to one subnormal similarity far out, so two events a
   hair apart there tie for a user: the nearer one has the higher id, and
   a distance-keyed list would rank it first. *)
let test_similarity_ties_by_id () =
  let sim = Similarity.gaussian ~sigma:1. in
  let f = (Option.get (Similarity.dist_profile sim)).Similarity.sim_of_dist in
  let rec flat x =
    if x > 38.7 then Alcotest.fail "no flat stretch of the Gaussian profile"
    else if f x > 0. && Float.equal (f x) (f (x +. 1e-4)) then x
    else flat (x +. 1e-3)
  in
  let near = flat 38.5 in
  let at id x = Entity.make ~id ~attrs:[| x |] ~capacity:1 in
  let far_first = [| at 0 (near +. 1e-4); at 1 near |] and origin = [| at 0 0. |] in
  let events_tie =
    Instance.create ~sim ~events:far_first ~users:origin
      ~conflicts:(Conflict.create ~n_events:2) ()
  and users_tie =
    Instance.create ~sim ~events:origin ~users:far_first
      ~conflicts:(Conflict.create ~n_events:1) ()
  in
  let ids next = List.map (fun rank -> Option.map fst (next ~rank)) [ 1; 2; 3 ] in
  let want = [ Some 0; Some 1; None ] in
  Alcotest.(check (list (option int)))
    "a user's events" want
    (ids (fun ~rank -> Instance.user_neighbor events_tie ~u:0 ~rank));
  Alcotest.(check (list (option int)))
    "an event's users" want
    (ids (fun ~rank -> Instance.event_neighbor users_tie ~v:0 ~rank))

(* [candidate_users] runs the scan an event's list runs; it must equal the
   event's neighbour ranks cut at the gate, in ids and similarity bits. *)
let test_candidate_users_match_ranks () =
  let bits = List.map (fun (u, s) -> (u, Int64.bits_of_float s)) in
  let ranks_above t ~v ~min_sim =
    let rec go rank acc =
      match Instance.event_neighbor t ~v ~rank with
      | Some (u, s) when s >= min_sim -> go (rank + 1) ((u, s) :: acc)
      | Some _ | None -> List.rev acc
    in
    go 1 []
  in
  List.iter
    (fun dim ->
      let cfg =
        {
          Synthetic.default with
          Synthetic.n_events = 5;
          n_users = 120;
          dim;
        }
      in
      let t = Synthetic.generate ~seed:17 cfg in
      for v = 0 to Instance.n_events t - 1 do
        List.iter
          (fun min_sim ->
            Alcotest.(check (list (pair int int64)))
              (Printf.sprintf "d=%d v=%d min_sim=%g" dim v min_sim)
              (bits (ranks_above t ~v ~min_sim))
              (bits (Array.to_list (Instance.candidate_users t ~v ~min_sim))))
          [ 0.; 0.4; 0.6; 0.8 ]
      done)
    [ 4; 20 ];
  (* Cosine has no distance profile: candidates come in ascending id, with
     exactly the similarities [sim] returns. *)
  let g = Synthetic.generate ~seed:18 { Synthetic.default with n_events = 4; n_users = 60 } in
  let t =
    Instance.create ~sim:Similarity.cosine ~events:(Instance.events g)
      ~users:(Instance.users g) ~conflicts:(Instance.conflicts g) ()
  in
  for v = 0 to Instance.n_events t - 1 do
    let got = Array.to_list (Instance.candidate_users t ~v ~min_sim:0. ) in
    Alcotest.(check (list (pair int int64)))
      (Printf.sprintf "cosine v=%d" v)
      (bits
         (List.sort
            (fun (u1, _) (u2, _) -> Int.compare u1 u2)
            (ranks_above t ~v ~min_sim:0.)))
      (bits got);
    List.iter
      (fun (u, s) ->
        Alcotest.(check int64) "cosine sim bits"
          (Int64.bits_of_float (Instance.sim t ~v ~u))
          (Int64.bits_of_float s))
      got
  done

let suite =
  [
    Alcotest.test_case "point distances" `Quick test_point_dist;
    Alcotest.test_case "linear ordering" `Quick test_linear_ordering;
    Alcotest.test_case "linear ties by index" `Quick test_linear_ties_by_index;
    Alcotest.test_case "linear nth_nearest" `Quick test_linear_nth;
    Alcotest.test_case "linear nearest_within" `Quick test_linear_within;
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
    QCheck_alcotest.to_alcotest prop_ranked_matches_sort;
    QCheck_alcotest.to_alcotest prop_instance_neighbours;
    Alcotest.test_case "similarity ties rank by id" `Quick
      test_similarity_ties_by_id;
    Alcotest.test_case "candidate users = event ranks" `Quick
      test_candidate_users_match_ranks;
  ]
