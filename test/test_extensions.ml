(* Extensions: the naive greedy oracle and local-search improvement. *)

open Geacc_core
module Synthetic = Geacc_datagen.Synthetic

let cfg =
  {
    Synthetic.default with
    Synthetic.n_events = 5;
    n_users = 10;
    dim = 2;
    event_capacity = Synthetic.Cap_uniform 4;
    user_capacity = Synthetic.Cap_uniform 2;
  }

(* Greedy-GEACC walks only the events' neighbour lists; the sort-all-pairs
   oracle sees every pair. Same arrangement means the same pairs and the
   same MaxSum bits. *)
let check_same_greedy label t =
  let naive = Greedy_naive.solve t and heap = Greedy.solve t in
  Alcotest.(check (list (pair int int)))
    (label ^ ": identical matchings")
    (Matching.pairs naive) (Matching.pairs heap);
  Alcotest.(check int64)
    (label ^ ": identical MaxSum bits")
    (Int64.bits_of_float (Matching.maxsum naive))
    (Int64.bits_of_float (Matching.maxsum heap))

(* A random instance of one shape: coordinates on the integer grid
   [0, 3]^dim (many equal distances, so equal similarities) or uniform in
   [0, 10]^dim, capacities uniform in [0, max] (so some are 0), and each
   event pair in conflict with probability [cf]. *)
let shaped ~seed ~sim ~grid ~n_events ~n_users ~dim ~cv ~cu ~cf =
  let rng = Geacc_util.Rng.create ~seed in
  let coord () =
    if grid then float_of_int (Geacc_util.Rng.int rng 4)
    else Geacc_util.Rng.float rng 10.
  in
  let side n cmax =
    Array.init n (fun id ->
        Entity.make ~id
          ~attrs:(Array.init dim (fun _ -> coord ()))
          ~capacity:(Geacc_util.Rng.int rng (cmax + 1)))
  in
  let events = side n_events cv in
  let users = side n_users cu in
  let conflicts = Conflict.create ~n_events in
  for v = 0 to n_events - 1 do
    for w = v + 1 to n_events - 1 do
      if Geacc_util.Rng.float rng 1. < cf then Conflict.add conflicts v w
    done
  done;
  Instance.create ~sim:(sim dim) ~events ~users ~conflicts ()

(* Two users at distinct distances from one event whose similarities are
   equal: Gaussian similarity flattens to one subnormal value there. The
   event's list must still rank them by id, as the oracle's sort does. *)
let flat_profile_tie () =
  let sim = Similarity.gaussian ~sigma:1. in
  let f = (Option.get (Similarity.dist_profile sim)).Similarity.sim_of_dist in
  let rec find x =
    if x > 38.7 then Alcotest.fail "no flat stretch of the Gaussian profile"
    else if f x > 0. && Float.equal (f x) (f (x +. 1e-4)) then x
    else find (x +. 1e-3)
  in
  let near = find 38.5 in
  let events = [| Entity.make ~id:0 ~attrs:[| 0. |] ~capacity:1 |] in
  let users =
    [|
      Entity.make ~id:0 ~attrs:[| near +. 1e-4 |] ~capacity:1;
      Entity.make ~id:1 ~attrs:[| near |] ~capacity:1;
    |]
  in
  Instance.create ~sim ~events ~users ~conflicts:(Conflict.create ~n_events:1)
    ()

let test_naive_equals_heap_greedy () =
  (* Synthetic's default shape, cut small. *)
  for seed = 1 to 30 do
    check_same_greedy (Printf.sprintf "default seed %d" seed)
      (Synthetic.generate ~seed cfg)
  done;
  let euclidean dim = Similarity.euclidean ~dim ~range:10. in
  let gaussian _ = Similarity.gaussian ~sigma:0.1 in
  let cosine _ = Similarity.cosine in
  let shapes =
    [
      (* Users saturate first: sum c_u < sum c_v, so the run ends on the
         no-user-left stop. *)
      ("users-first", euclidean, false, 6, 12, 2, 8, 1, 0.3);
      (* Events saturate first: |U| >> |V|. *)
      ("events-first", euclidean, false, 3, 60, 2, 3, 3, 0.3);
      (* Integer grid: equal distances, so equal similarities. *)
      ("grid ties", euclidean, true, 5, 20, 2, 4, 2, 0.4);
      (* Gaussian: pairs farther apart than about 38.6 sigma have
         similarity exactly 0 and sit in no list. *)
      ("gaussian", gaussian, false, 5, 25, 2, 4, 2, 0.3);
      ("gaussian grid", gaussian, true, 5, 25, 3, 4, 2, 0.3);
      (* Cosine: no distance profile, lists keyed by similarity. *)
      ("cosine", cosine, false, 5, 25, 3, 4, 2, 0.3);
      ("cosine grid", cosine, true, 5, 25, 2, 4, 2, 0.3);
    ]
  in
  List.iter
    (fun (name, sim, grid, n_events, n_users, dim, cv, cu, cf) ->
      for seed = 1 to 25 do
        (* [shaped] draws capacities in [0, max], so 0 appears on both
           sides. *)
        check_same_greedy
          (Printf.sprintf "%s seed %d" name seed)
          (shaped ~seed ~sim ~grid ~n_events ~n_users ~dim ~cv ~cu ~cf)
      done)
    shapes;
  check_same_greedy "flat-profile tie" (flat_profile_tie ())

let test_naive_equals_heap_greedy_larger () =
  let check label cfg =
    let t = Synthetic.generate ~seed:7 cfg in
    check_same_greedy label t;
    (* [check_same_greedy] solved [t] fresh: Greedy opened event lists
       only. *)
    Alcotest.(check int)
      (label ^ ": no user list opened")
      0
      (snd (Instance.neighbor_work t))
  in
  check "moderate scale"
    { Synthetic.default with Synthetic.n_events = 30; n_users = 120 };
  check "users saturate first"
    {
      Synthetic.default with
      Synthetic.n_events = 40;
      n_users = 60;
      event_capacity = Synthetic.Cap_uniform 40;
      user_capacity = Synthetic.Cap_uniform 2;
    };
  check "events saturate first"
    {
      Synthetic.default with
      Synthetic.n_events = 10;
      n_users = 800;
      event_capacity = Synthetic.Cap_uniform 10;
    }

let test_local_search_never_worse () =
  for seed = 1 to 20 do
    let t = Synthetic.generate ~seed cfg in
    let m = Greedy.solve t in
    let before = Matching.maxsum m in
    let stats = Local_search.improve m in
    Alcotest.(check bool) "no violations" true (Validate.check_matching m = []);
    Alcotest.(check bool) "gained >= 0" true (stats.Local_search.gained >= -1e-9);
    Alcotest.(check (float 1e-9)) "gained is the delta"
      (Matching.maxsum m -. before)
      stats.Local_search.gained
  done

let test_local_search_bounded_by_optimum () =
  for seed = 1 to 15 do
    let t = Synthetic.generate ~seed cfg in
    let opt = Matching.maxsum (Exact.solve_prune t) in
    let ls = Matching.maxsum (Local_search.solve t) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: greedy <= greedy+ls <= opt" seed)
      true
      (ls <= opt +. 1e-6 && ls +. 1e-9 >= Matching.maxsum (Greedy.solve t))
  done

let test_local_search_actually_improves_something () =
  (* Over a batch of random instances where greedy is suboptimal, the
     replace move must close part of the gap at least once — otherwise the
     optimiser is a no-op and this test fails loudly. *)
  let improved = ref false in
  for seed = 1 to 40 do
    let t = Synthetic.generate ~seed cfg in
    let greedy = Matching.maxsum (Greedy.solve t) in
    let ls = Matching.maxsum (Local_search.solve t) in
    if ls > greedy +. 1e-9 then improved := true
  done;
  Alcotest.(check bool) "local search improves some instance" true !improved

let test_local_search_fixpoint_on_optimal () =
  (* Feeding it an optimal matching must change nothing. *)
  let t = Synthetic.generate ~seed:3 cfg in
  let m = Exact.solve_prune t in
  let before = Matching.maxsum m in
  let stats = Local_search.improve m in
  Alcotest.(check (float 1e-9)) "unchanged" before (Matching.maxsum m);
  Alcotest.(check (float 1e-9)) "no gain" 0. stats.Local_search.gained

let test_local_search_respects_rounds () =
  let t = Synthetic.generate ~seed:4 cfg in
  let m = Greedy.solve t in
  let stats = Local_search.improve ~max_rounds:1 m in
  Alcotest.(check bool) "round cap" true (stats.Local_search.rounds <= 1);
  Alcotest.(check bool) "bad cap rejected" true
    (try
       ignore (Local_search.improve ~max_rounds:0 m);
       false
     with Invalid_argument _ -> true)

(* [Online.solve] reports bad orders as a structured [Error]; the tests for
   well-formed orders unwrap it. *)
let online_exn ?order t =
  match Online.solve ?order t with
  | Ok m -> m
  | Error e -> Alcotest.failf "online: %s" (Geacc_robust.Error.to_string e)

let test_online_feasible_any_order () =
  let rng = Geacc_util.Rng.create ~seed:5 in
  for seed = 1 to 15 do
    let t = Synthetic.generate ~seed cfg in
    let m = Online.solve_random_order ~rng t in
    Alcotest.(check bool) "feasible" true (Validate.check_matching m = [])
  done

let test_online_default_order_deterministic () =
  let t = Synthetic.generate ~seed:2 cfg in
  Alcotest.(check (list (pair int int)))
    "ascending arrivals reproducible"
    (Matching.pairs (online_exn t))
    (Matching.pairs (online_exn t))

let test_online_bounded_by_optimum () =
  for seed = 1 to 10 do
    let t = Synthetic.generate ~seed cfg in
    let opt = Matching.maxsum (Exact.solve_prune t) in
    let online = Matching.maxsum (online_exn t) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: online <= opt" seed)
      true
      (online <= opt +. 1e-6)
  done

let test_online_each_user_served_greedily () =
  (* The first arrival faces a fresh system: it must receive its top
     feasible events. *)
  let t = Synthetic.generate ~seed:3 cfg in
  let m = online_exn t in
  let u = 0 in
  let got = List.sort compare (Matching.user_events m u) in
  let expected =
    (* Walk user 0's ranks over a fresh matching. *)
    let fresh = Matching.create t in
    let rec walk rank acc =
      if Matching.remaining_user_capacity fresh u = 0 then acc
      else
        match Instance.user_neighbor t ~u ~rank with
        | None -> acc
        | Some (v, _) -> (
            match Matching.add fresh ~v ~u with
            | Ok _ -> walk (rank + 1) (v :: acc)
            | Error _ -> walk (rank + 1) acc)
    in
    List.sort compare (walk 1 [])
  in
  Alcotest.(check (list int)) "first arrival gets its best" expected got

let test_online_rejects_bad_order () =
  let t = Synthetic.generate ~seed:4 cfg in
  let expect_invalid label order =
    match Online.solve ~order t with
    | Ok _ -> Alcotest.failf "%s: accepted a bad order" label
    | Error (Geacc_robust.Error.Invalid_input { what; _ }) ->
        Alcotest.(check string) (label ^ " names order") "order" what
    | Error e ->
        Alcotest.failf "%s: unexpected error %s" label
          (Geacc_robust.Error.to_string e)
  in
  expect_invalid "wrong length" [| 0 |];
  expect_invalid "duplicate ids" (Array.make (Instance.n_users t) 0);
  expect_invalid "out of range"
    (Array.init (Instance.n_users t) (fun i ->
         if i = 0 then Instance.n_users t else i))

let suite =
  [
    Alcotest.test_case "naive greedy = heap greedy" `Quick
      test_naive_equals_heap_greedy;
    Alcotest.test_case "online feasible" `Quick test_online_feasible_any_order;
    Alcotest.test_case "online deterministic" `Quick
      test_online_default_order_deterministic;
    Alcotest.test_case "online bounded by optimum" `Quick
      test_online_bounded_by_optimum;
    Alcotest.test_case "online serves arrivals greedily" `Quick
      test_online_each_user_served_greedily;
    Alcotest.test_case "online rejects bad orders" `Quick
      test_online_rejects_bad_order;
    Alcotest.test_case "naive greedy = heap greedy (larger)" `Quick
      test_naive_equals_heap_greedy_larger;
    Alcotest.test_case "local search never worse" `Quick
      test_local_search_never_worse;
    Alcotest.test_case "local search bounded by optimum" `Quick
      test_local_search_bounded_by_optimum;
    Alcotest.test_case "local search improves something" `Quick
      test_local_search_actually_improves_something;
    Alcotest.test_case "local search fixpoint on optimal" `Quick
      test_local_search_fixpoint_on_optimal;
    Alcotest.test_case "local search round cap" `Quick
      test_local_search_respects_rounds;
  ]
