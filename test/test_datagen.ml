(* Workload generators: TABLE II/III conformance, determinism, temporal
   conflict derivation. *)

open Geacc_core
module Synthetic = Geacc_datagen.Synthetic
module Meetup = Geacc_datagen.Meetup
module Temporal = Geacc_datagen.Temporal
module Conflict_gen = Geacc_datagen.Conflict_gen
module Rng = Geacc_util.Rng

(* -- Conflict_gen -- *)

let test_nth_pair_bijective () =
  let n = 7 in
  let seen = Hashtbl.create 32 in
  for k = 0 to (n * (n - 1) / 2) - 1 do
    let v, w = Conflict_gen.nth_pair ~n k in
    Alcotest.(check bool) "ordered" true (0 <= v && v < w && w < n);
    Alcotest.(check bool) "fresh" false (Hashtbl.mem seen (v, w));
    Hashtbl.add seen (v, w) ()
  done;
  Alcotest.(check int) "covers all pairs" (n * (n - 1) / 2)
    (Hashtbl.length seen)

let test_conflict_gen_sizes () =
  let rng = Rng.create ~seed:1 in
  List.iter
    (fun (ratio, expected) ->
      let cf = Conflict_gen.random (Rng.split rng) ~n_events:10 ~ratio in
      Alcotest.(check int)
        (Printf.sprintf "ratio %.2f" ratio)
        expected (Conflict.cardinal cf))
    [ (0., 0); (0.25, 11); (0.5, 23); (1., 45) ]

(* -- Synthetic (TABLE III) -- *)

let test_synthetic_default_shape () =
  let t = Synthetic.generate ~seed:1 Synthetic.default in
  Alcotest.(check int) "|V|" 100 (Instance.n_events t);
  Alcotest.(check int) "|U|" 1000 (Instance.n_users t);
  Alcotest.(check int) "d" 20 (Instance.dim t);
  (* Conflict ratio 0.25 of 4950 pairs. *)
  Alcotest.(check int) "|CF|" 1238 (Conflict.cardinal (Instance.conflicts t));
  (* Capacities within the paper's ranges and the problem's bounds. *)
  Array.iter
    (fun (e : Entity.t) ->
      Alcotest.(check bool) "c_v in [1,50]" true
        (e.Entity.capacity >= 1 && e.Entity.capacity <= 50))
    (Instance.events t);
  Array.iter
    (fun (u : Entity.t) ->
      Alcotest.(check bool) "c_u in [1,4]" true
        (u.Entity.capacity >= 1 && u.Entity.capacity <= 4))
    (Instance.users t)

let test_synthetic_attr_ranges () =
  List.iter
    (fun attrs ->
      let t =
        Synthetic.generate ~seed:2
          {
            Synthetic.default with
            Synthetic.n_events = 20;
            n_users = 50;
            attrs;
          }
      in
      Array.iter
        (fun (e : Entity.t) ->
          Array.iter
            (fun x ->
              Alcotest.(check bool) "attr in [0,T]" true (x >= 0. && x <= 10000.))
            e.Entity.attrs)
        (Array.append (Instance.events t) (Instance.users t)))
    [
      Synthetic.Attr_uniform;
      Synthetic.Attr_zipf 1.3;
      Synthetic.Attr_normal_mixture;
    ]

let test_synthetic_deterministic () =
  let a = Synthetic.generate ~seed:3 Synthetic.default in
  let b = Synthetic.generate ~seed:3 Synthetic.default in
  Alcotest.(check bool) "same attributes" true
    ((Instance.event a 0).Entity.attrs = (Instance.event b 0).Entity.attrs);
  Alcotest.(check int) "same conflicts"
    (Conflict.cardinal (Instance.conflicts a))
    (Conflict.cardinal (Instance.conflicts b));
  let c = Synthetic.generate ~seed:4 Synthetic.default in
  Alcotest.(check bool) "different seed differs" true
    ((Instance.event a 0).Entity.attrs <> (Instance.event c 0).Entity.attrs)

let test_synthetic_capacity_clamping () =
  (* c_v is clamped to |U| per the problem statement's assumption. *)
  let t =
    Synthetic.generate ~seed:5
      {
        Synthetic.default with
        Synthetic.n_events = 5;
        n_users = 3;
        event_capacity = Synthetic.Cap_uniform 50;
      }
  in
  Array.iter
    (fun (e : Entity.t) ->
      Alcotest.(check bool) "c_v <= |U|" true (e.Entity.capacity <= 3))
    (Instance.events t)

let test_synthetic_normal_capacities_positive () =
  let t =
    Synthetic.generate ~seed:6
      {
        Synthetic.default with
        Synthetic.n_events = 50;
        n_users = 100;
        event_capacity = Synthetic.Cap_normal (25., 12.5);
        user_capacity = Synthetic.Cap_normal (2., 1.);
      }
  in
  Array.iter
    (fun (e : Entity.t) ->
      Alcotest.(check bool) "integer capacity >= 1" true (e.Entity.capacity >= 1))
    (Array.append (Instance.events t) (Instance.users t))

let test_synthetic_validation () =
  Alcotest.(check bool) "bad ratio rejected" true
    (try
       ignore
         (Synthetic.generate ~seed:1
            { Synthetic.default with Synthetic.conflict_ratio = 1.5 });
       false
     with Invalid_argument _ -> true)

(* -- Meetup (TABLE II) -- *)

let test_meetup_city_sizes () =
  List.iter
    (fun (city : Meetup.city) ->
      let t = Meetup.generate ~seed:1 city in
      Alcotest.(check int)
        (city.Meetup.name ^ " |V|")
        city.Meetup.n_events (Instance.n_events t);
      Alcotest.(check int)
        (city.Meetup.name ^ " |U|")
        city.Meetup.n_users (Instance.n_users t);
      Alcotest.(check int) "20 merged tags" 20 (Instance.dim t))
    Meetup.cities

let test_meetup_vectors_normalised () =
  let t = Meetup.generate ~seed:2 Meetup.auckland in
  Array.iter
    (fun (e : Entity.t) ->
      let total = Array.fold_left ( +. ) 0. e.Entity.attrs in
      Alcotest.(check (float 1e-9)) "tag weights sum to 1" 1. total;
      Array.iter
        (fun x -> Alcotest.(check bool) "weight in [0,1]" true (x >= 0. && x <= 1.))
        e.Entity.attrs)
    (Array.append (Instance.events t) (Instance.users t))

let test_meetup_tag_popularity_skew () =
  (* Zipf tag popularity: the most popular merged tag carries far more
     total mass than the least popular. *)
  let t = Meetup.generate ~seed:3 Meetup.singapore in
  let mass = Array.make 20 0. in
  Array.iter
    (fun (u : Entity.t) ->
      Array.iteri (fun i x -> mass.(i) <- mass.(i) +. x) u.Entity.attrs)
    (Instance.users t);
  let sorted = Array.copy mass in
  Array.sort (fun a b -> Float.compare b a) sorted;
  Alcotest.(check bool) "head tag 5x the tail tag" true
    (sorted.(0) > 5. *. sorted.(19))

let test_meetup_capacity_models () =
  let t = Meetup.generate ~seed:4 ~capacities:Meetup.Cap_normal Meetup.auckland in
  Array.iter
    (fun (e : Entity.t) ->
      Alcotest.(check bool) "normal capacities >= 1" true (e.Entity.capacity >= 1))
    (Array.append (Instance.events t) (Instance.users t))

let test_meetup_conflict_ratio () =
  let t = Meetup.generate ~seed:5 ~conflict_ratio:0.5 Meetup.auckland in
  let cf = Instance.conflicts t in
  Alcotest.(check bool) "ratio honoured" true
    (Float.abs (Conflict.ratio cf -. 0.5) < 0.01)

(* -- Temporal -- *)

let sched = Temporal.make

let test_overlap () =
  let a = sched ~start_time:8. ~end_time:12. ()
  and b = sched ~start_time:9. ~end_time:11. ()
  and c = sched ~start_time:12. ~end_time:13. () in
  Alcotest.(check bool) "nested overlap" true (Temporal.overlaps a b);
  Alcotest.(check bool) "touching intervals do not overlap" false
    (Temporal.overlaps a c);
  Alcotest.(check bool) "symmetric" true (Temporal.overlaps b a)

let test_travel_feasibility () =
  (* The intro's scenario: badminton ends 11:00, basketball starts 11:30 at
     a venue one hour away — incompatible; a venue 20 minutes away would be
     fine. *)
  let badminton = sched ~start_time:9. ~end_time:11. ~location:(0., 0.) () in
  let far_court = sched ~start_time:11.5 ~end_time:13.5 ~location:(60., 0.) () in
  let near_court = sched ~start_time:11.5 ~end_time:13.5 ~location:(20., 0.) () in
  Alcotest.(check bool) "one hour away, half-hour gap" false
    (Temporal.compatible ~speed_kmh:60. badminton far_court);
  Alcotest.(check bool) "twenty minutes away" true
    (Temporal.compatible ~speed_kmh:60. badminton near_court);
  Alcotest.(check (float 1e-9)) "travel time" 1.
    (Temporal.travel_time ~speed_kmh:60. badminton far_court)

let test_conflicts_of () =
  let schedules =
    [|
      sched ~start_time:8. ~end_time:12. ();
      sched ~start_time:9. ~end_time:11. ~location:(5., 0.) ();
      sched ~start_time:11.5 ~end_time:13.5 ~location:(5., 60.) ();
      sched ~start_time:20. ~end_time:21. ();
    |]
  in
  let cf = Temporal.conflicts_of ~speed_kmh:60. schedules in
  (* Events 0,1,2 pairwise conflict (see weekend_sports); 3 is free. *)
  Alcotest.(check bool) "0-1" true (Conflict.mem cf 0 1);
  Alcotest.(check bool) "0-2" true (Conflict.mem cf 0 2);
  Alcotest.(check bool) "1-2" true (Conflict.mem cf 1 2);
  Alcotest.(check int) "evening event conflict-free" 0 (Conflict.degree cf 3)

let test_conflicts_superset_of_overlaps () =
  let rng = Rng.create ~seed:6 in
  let schedules = Temporal.random_schedules ~rng ~n:40 () in
  let cf = Temporal.conflicts_of schedules in
  Array.iteri
    (fun i si ->
      Array.iteri
        (fun j sj ->
          if i < j && Temporal.overlaps si sj then
            Alcotest.(check bool) "overlapping implies conflicting" true
              (Conflict.mem cf i j))
        schedules)
    schedules

let test_schedule_validation () =
  Alcotest.(check bool) "end before start rejected" true
    (try
       ignore (sched ~start_time:5. ~end_time:4. ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero speed rejected" true
    (try
       ignore
         (Temporal.travel_time ~speed_kmh:0.
            (sched ~start_time:0. ~end_time:1. ())
            (sched ~start_time:2. ~end_time:3. ()));
       false
     with Invalid_argument _ -> true)

(* Out-of-range parameters fail before any entity is generated. *)
let test_trace_gen_validation () =
  let rejects label f =
    Alcotest.(check bool) label true
      (try
         ignore (f () : Geacc_serve.Trace.t);
         false
       with Invalid_argument _ -> true)
  in
  rejects "no arrivals per batch" (fun () ->
      Geacc_datagen.Trace_gen.generate ~seed:1 ~arrivals_per_batch:0 ());
  List.iter
    (fun churn ->
      rejects (Printf.sprintf "churn %g" churn) (fun () ->
          Geacc_datagen.Trace_gen.generate ~seed:1 ~churn ()))
    [ -1.; 1.5; Float.nan; Float.infinity ]

let suite =
  [
    Alcotest.test_case "nth_pair bijective" `Quick test_nth_pair_bijective;
    Alcotest.test_case "conflict sizes" `Quick test_conflict_gen_sizes;
    Alcotest.test_case "synthetic default (TABLE III)" `Quick
      test_synthetic_default_shape;
    Alcotest.test_case "synthetic attribute ranges" `Quick
      test_synthetic_attr_ranges;
    Alcotest.test_case "synthetic deterministic" `Quick
      test_synthetic_deterministic;
    Alcotest.test_case "synthetic capacity clamping" `Quick
      test_synthetic_capacity_clamping;
    Alcotest.test_case "synthetic normal capacities" `Quick
      test_synthetic_normal_capacities_positive;
    Alcotest.test_case "synthetic validation" `Quick test_synthetic_validation;
    Alcotest.test_case "meetup city sizes (TABLE II)" `Quick
      test_meetup_city_sizes;
    Alcotest.test_case "meetup vectors normalised" `Quick
      test_meetup_vectors_normalised;
    Alcotest.test_case "meetup tag skew" `Quick test_meetup_tag_popularity_skew;
    Alcotest.test_case "meetup capacity models" `Quick
      test_meetup_capacity_models;
    Alcotest.test_case "meetup conflict ratio" `Quick
      test_meetup_conflict_ratio;
    Alcotest.test_case "temporal overlap" `Quick test_overlap;
    Alcotest.test_case "temporal travel feasibility" `Quick
      test_travel_feasibility;
    Alcotest.test_case "temporal conflicts_of" `Quick test_conflicts_of;
    Alcotest.test_case "conflicts superset of overlaps" `Quick
      test_conflicts_superset_of_overlaps;
    Alcotest.test_case "temporal validation" `Quick test_schedule_validation;
    Alcotest.test_case "trace generator validation" `Quick
      test_trace_gen_validation;
  ]
