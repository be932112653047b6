(* Index backends: VA-File and iDistance against the linear oracle, plus
   end-to-end solver agreement across every backend. *)

module Point = Geacc_index.Point
module Linear = Geacc_index.Linear_index
module Va = Geacc_index.Va_file
module Id = Geacc_index.I_distance
module Backend = Geacc_index.Nn_backend
module Ranked = Geacc_index.Ranked
module Rng = Geacc_util.Rng
open Geacc_core
module Synthetic = Geacc_datagen.Synthetic

let random_points rng ~n ~d ~range =
  Array.init n (fun _ -> Array.init d (fun _ -> Rng.float rng range))

(* -- VA-File -- *)

let test_va_build () =
  let rng = Rng.create ~seed:1 in
  let points = random_points rng ~n:100 ~d:5 ~range:10. in
  let t = Va.build points in
  Alcotest.(check int) "size" 100 (Va.size t);
  Alcotest.(check int) "approximation is n*d bytes" 500
    (Va.approximation_bytes t);
  Alcotest.(check bool) "bad bits rejected" true
    (try
       ignore (Va.build ~bits_per_dim:9 points);
       false
     with Invalid_argument _ -> true)

let check_va_against_oracle ~n ~d ~bits ~seed =
  let rng = Rng.create ~seed in
  let points = random_points rng ~n ~d ~range:100. in
  let t = Va.build ~bits_per_dim:bits points in
  let oracle = Linear.create points in
  for _ = 1 to 10 do
    let q = Array.init d (fun _ -> Rng.float rng 100.) in
    let s = Va.stream t ~query:q ~max_dist:infinity in
    for rank = 1 to n do
      match (Ranked.get (Va.ranked s) rank, Linear.nth_nearest oracle q rank) with
      | Some (i, dist), Some (i', dist') ->
          Alcotest.(check int) (Printf.sprintf "rank %d id" rank) i' i;
          Alcotest.(check (float 1e-9)) "dist" dist' dist
      | None, None -> ()
      | _ -> Alcotest.fail "existence mismatch"
    done;
    Alcotest.(check bool) "rank n+1 empty" true (Ranked.get (Va.ranked s) (n + 1) = None)
  done

let test_va_exact_order () = check_va_against_oracle ~n:80 ~d:4 ~bits:4 ~seed:2
let test_va_one_bit () = check_va_against_oracle ~n:40 ~d:3 ~bits:1 ~seed:3
let test_va_high_d () = check_va_against_oracle ~n:60 ~d:20 ~bits:5 ~seed:4

let test_va_saves_refinements () =
  (* Shallow queries must not refine everything — the point of the index. *)
  let rng = Rng.create ~seed:5 in
  let points = random_points rng ~n:2000 ~d:4 ~range:100. in
  let t = Va.build ~bits_per_dim:6 points in
  let q = Array.init 4 (fun _ -> Rng.float rng 100.) in
  let s = Va.stream t ~query:q ~max_dist:infinity in
  for rank = 1 to 10 do
    ignore (Ranked.get (Va.ranked s) rank)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "10-NN refined only %d of 2000" (Va.refinements s))
    true
    (Va.refinements s < 400)

let test_va_cutoff () =
  let points = Array.init 20 (fun i -> [| float_of_int i |]) in
  let t = Va.build points in
  let s = Va.stream t ~query:[| 0. |] ~max_dist:5. in
  let rec count rank =
    if Ranked.get (Va.ranked s) rank = None then rank - 1 else count (rank + 1)
  in
  Alcotest.(check int) "exactly points at distance < 5" 5 (count 1)

(* -- iDistance -- *)

let test_idistance_build () =
  let rng = Rng.create ~seed:6 in
  let points = random_points rng ~n:200 ~d:3 ~range:10. in
  let t = Id.build points in
  Alcotest.(check int) "size" 200 (Id.size t);
  Alcotest.(check int) "sqrt-n references" 14 (Id.n_references t);
  let custom = Id.build ~n_references:5 points in
  Alcotest.(check int) "explicit references" 5 (Id.n_references custom)

let check_idistance_against_oracle ~n ~d ~refs ~seed =
  let rng = Rng.create ~seed in
  let points = random_points rng ~n ~d ~range:100. in
  let t = Id.build ?n_references:refs points in
  let oracle = Linear.create points in
  for _ = 1 to 10 do
    let q = Array.init d (fun _ -> Rng.float rng 100.) in
    let s = Id.stream t ~query:q ~max_dist:infinity in
    for rank = 1 to n do
      match (Ranked.get (Id.ranked s) rank, Linear.nth_nearest oracle q rank) with
      | Some (i, dist), Some (i', dist') ->
          Alcotest.(check int) (Printf.sprintf "rank %d id" rank) i' i;
          Alcotest.(check (float 1e-9)) "dist" dist' dist
      | None, None -> ()
      | _ -> Alcotest.fail "existence mismatch"
    done
  done

let test_idistance_exact_order () =
  check_idistance_against_oracle ~n:80 ~d:4 ~refs:None ~seed:7

let test_idistance_single_reference () =
  check_idistance_against_oracle ~n:50 ~d:2 ~refs:(Some 1) ~seed:8

let test_idistance_many_references () =
  check_idistance_against_oracle ~n:60 ~d:6 ~refs:(Some 30) ~seed:9

let test_idistance_query_on_point () =
  (* A query sitting exactly on an indexed point: rank 1 is that point at
     distance 0. *)
  let rng = Rng.create ~seed:10 in
  let points = random_points rng ~n:50 ~d:3 ~range:10. in
  let t = Id.build points in
  let s = Id.stream t ~query:(Array.copy points.(17)) ~max_dist:infinity in
  match Ranked.get (Id.ranked s) 1 with
  | Some (17, d) -> Alcotest.(check (float 1e-12)) "distance zero" 0. d
  | _ -> Alcotest.fail "expected point 17 first"

let test_idistance_cutoff () =
  let points = Array.init 20 (fun i -> [| float_of_int i |]) in
  let t = Id.build ~n_references:3 points in
  let s = Id.stream t ~query:[| 0. |] ~max_dist:5. in
  let rec count rank =
    if Ranked.get (Id.ranked s) rank = None then rank - 1 else count (rank + 1)
  in
  Alcotest.(check int) "cutoff respected" 5 (count 1)

(* -- Backend registry and end-to-end agreement -- *)

let test_backend_of_string () =
  List.iter
    (fun (b : Backend.t) ->
      match Backend.of_string b.Backend.name with
      | Ok b' -> Alcotest.(check string) "roundtrip" b.Backend.name b'.Backend.name
      | Error e -> Alcotest.fail e)
    Backend.all;
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Backend.of_string "quadtree"))

(* Every backend against the oracle: ids and distance bits at every rank,
   asked for in random order (including ranks past the last point), under
   a random cutoff that is sometimes none at all. *)
let prop_backends_agree =
  QCheck.Test.make ~name:"all backends yield the oracle's order" ~count:40
    QCheck.(triple (int_range 1 50) (int_range 1 12) (int_bound 999))
    (fun (n, d, seed) ->
      let rng = Rng.create ~seed in
      let points = random_points rng ~n ~d ~range:20. in
      let q = Array.init d (fun _ -> Rng.float rng 20.) in
      let max_dist =
        if Rng.bool rng then infinity
        else Rng.float rng (20. *. sqrt (float_of_int d))
      in
      let oracle = Linear.nearest_within (Linear.create points) q ~k:n ~max_dist in
      let ranks = Array.init (n + 2) (fun k -> k + 1) in
      Rng.shuffle_in_place rng ranks;
      List.for_all
        (fun (b : Backend.t) ->
          let index = b.Backend.build points in
          let s = index.Backend.stream ~query:q ~max_dist in
          Array.for_all
            (fun rank ->
              match Ranked.get s rank with
              | Some (i, dist) ->
                  rank <= Array.length oracle
                  &&
                  let i', dist' = oracle.(rank - 1) in
                  i = i' && Int64.bits_of_float dist = Int64.bits_of_float dist'
              | None -> rank > Array.length oracle)
            ranks)
        Backend.all)

(* The backend is an implementation detail: every solver must return the
   same arrangement whatever index serves the streams. d = 6 runs the kd
   backend's tree search, d = 20 its scans. *)
let test_solvers_identical_across_backends () =
  let cfg dim =
    {
      Synthetic.default with
      Synthetic.n_events = 8;
      n_users = 30;
      dim;
      event_capacity = Synthetic.Cap_uniform 4;
      user_capacity = Synthetic.Cap_uniform 2;
    }
  in
  let solvers =
    [
      ("greedy", Greedy.solve);
      ("prune", fun t -> Exact.solve_prune t);
      ("mincostflow", fun t -> Mincostflow.solve t);
    ]
  in
  List.iter
    (fun (dim, seed) ->
      List.iter
        (fun (name, solve) ->
          let reference = solve (Synthetic.generate ~seed (cfg dim)) in
          List.iter
            (fun (b : Backend.t) ->
              let m = solve (Synthetic.generate ~seed ~backend:b (cfg dim)) in
              let label =
                Printf.sprintf "%s via %s (d=%d, seed %d)" name b.Backend.name
                  dim seed
              in
              Alcotest.(check (list (pair int int)))
                label (Matching.pairs reference) (Matching.pairs m);
              Alcotest.(check int64) (label ^ " maxsum bits")
                (Int64.bits_of_float (Matching.maxsum reference))
                (Int64.bits_of_float (Matching.maxsum m)))
            Backend.all)
        solvers)
    [ (6, 1); (6, 2); (6, 3); (20, 2); (20, 3) ]

(* [candidate_users] is a scan whatever the backend; it must equal the
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
      List.iter
        (fun (b : Backend.t) ->
          let t = Synthetic.generate ~seed:17 ~backend:b cfg in
          for v = 0 to Instance.n_events t - 1 do
            List.iter
              (fun min_sim ->
                Alcotest.(check (list (pair int int64)))
                  (Printf.sprintf "%s d=%d v=%d min_sim=%g" b.Backend.name dim
                     v min_sim)
                  (bits (ranks_above t ~v ~min_sim))
                  (bits
                     (Array.to_list (Instance.candidate_users t ~v ~min_sim))))
              [ 0.; 0.4; 0.6; 0.8 ]
          done)
        Backend.all)
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
    Alcotest.test_case "va-file build" `Quick test_va_build;
    Alcotest.test_case "va-file exact order" `Quick test_va_exact_order;
    Alcotest.test_case "va-file 1 bit per dim" `Quick test_va_one_bit;
    Alcotest.test_case "va-file high-d" `Quick test_va_high_d;
    Alcotest.test_case "va-file saves refinements" `Quick
      test_va_saves_refinements;
    Alcotest.test_case "va-file cutoff" `Quick test_va_cutoff;
    Alcotest.test_case "idistance build" `Quick test_idistance_build;
    Alcotest.test_case "idistance exact order" `Quick
      test_idistance_exact_order;
    Alcotest.test_case "idistance single reference" `Quick
      test_idistance_single_reference;
    Alcotest.test_case "idistance many references" `Quick
      test_idistance_many_references;
    Alcotest.test_case "idistance query on a point" `Quick
      test_idistance_query_on_point;
    Alcotest.test_case "idistance cutoff" `Quick test_idistance_cutoff;
    Alcotest.test_case "backend of_string" `Quick test_backend_of_string;
    QCheck_alcotest.to_alcotest prop_backends_agree;
    Alcotest.test_case "solvers identical across backends" `Quick
      test_solvers_identical_across_backends;
    Alcotest.test_case "candidate users = event ranks" `Quick
      test_candidate_users_match_ranks;
  ]
