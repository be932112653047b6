(* The domain pool's determinism contract, tested two ways:

   - pool unit tests: chunk coverage, empty ranges, exception choice
     (lowest failing chunk wins), nested-region resolution, reuse after
     completion, failure and shutdown;
   - end-to-end determinism: the MCF network (arc ids, costs) and the full
     solvers must be byte-identical for jobs ∈ {1, 2, 4}.

   Float equality is checked on the IEEE bit pattern — "byte-identical"
   means exactly that, not approximate agreement. *)

open Geacc_core
module Pool = Geacc_par.Pool
module Graph = Geacc_flow.Graph
module Synthetic = Geacc_datagen.Synthetic
module Rng = Geacc_util.Rng

let jobs_under_test = [ 1; 2; 4 ]

(* ---------- pool unit tests ---------- *)

let test_empty_range () =
  let hits = ref 0 in
  Pool.parallel_for ~jobs:4 ~n:0 (fun _ -> incr hits);
  Alcotest.(check int) "no iterations for n=0" 0 !hits;
  Alcotest.(check int) "map_chunked n=0 is empty" 0
    (Array.length
       (Pool.parallel_map_chunked ~jobs:4 ~n:0 (fun ~lo:_ ~hi:_ -> ())));
  Alcotest.(check int) "reduce n=0 returns init" 42
    (Pool.parallel_reduce ~jobs:4 ~n:0 ~init:42
       ~fold:(fun acc _ -> acc + 1)
       ~combine:( + ) ())

let test_for_covers_each_index () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          (* Chunks are disjoint index ranges, so the writes race-free
             prove every index ran exactly once. *)
          let hits = Array.make (Stdlib.max n 1) 0 in
          Pool.parallel_for ~jobs ~n (fun i -> hits.(i) <- hits.(i) + 1);
          for i = 0 to n - 1 do
            if hits.(i) <> 1 then
              Alcotest.failf "jobs=%d n=%d: index %d ran %d times" jobs n i
                hits.(i)
          done)
        [ 1; 2; 3; 5; 64; 1000 ])
    jobs_under_test

let test_exception_lowest_chunk_wins () =
  (* Failures fire in two different chunks at every tested job count; the
     exception of the lowest-indexed failing chunk must surface, regardless
     of real-time completion order. *)
  List.iter
    (fun jobs ->
      match
        Pool.parallel_for ~jobs ~n:100 (fun i ->
            if i = 10 || i = 60 then failwith (string_of_int i))
      with
      | () -> Alcotest.fail "expected Failure"
      | exception Failure msg ->
          Alcotest.(check string) (Printf.sprintf "jobs=%d" jobs) "10" msg)
    jobs_under_test

let test_nested_explicit_rejected () =
  Alcotest.check_raises "explicit ~jobs > 1 inside a chunk body"
    (Invalid_argument
       "Pool: nested parallel region (explicit ~jobs > 1 inside a chunk \
        body)")
    (fun () ->
      Pool.parallel_for ~jobs:2 ~n:2 (fun _ ->
          Pool.parallel_for ~jobs:2 ~n:2 (fun _ -> ())))

let test_nested_ambient_degrades () =
  let inner = Atomic.make 0 in
  Pool.with_jobs 4 (fun () ->
      Pool.parallel_for ~n:4 (fun _ ->
          if not (Pool.in_region ()) then
            Alcotest.fail "in_region should hold inside a chunk body";
          (* Ambient nested call: resolves to 1 worker, runs inline. *)
          Pool.parallel_for ~n:8 (fun _ -> Atomic.incr inner)));
  Alcotest.(check bool) "not in_region outside" false (Pool.in_region ());
  Alcotest.(check int) "ambient nested ran all iterations" 32
    (Atomic.get inner)

let test_reuse_after_failure_and_shutdown () =
  (try Pool.parallel_for ~jobs:4 ~n:16 (fun _ -> failwith "boom")
   with Failure _ -> ());
  let hits = Array.make 64 0 in
  Pool.parallel_for ~jobs:4 ~n:64 (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check int) "region after a failed region runs fully" 64
    (Array.fold_left ( + ) 0 hits);
  Pool.shutdown ();
  let after = Array.make 64 0 in
  Pool.parallel_for ~jobs:4 ~n:64 (fun i -> after.(i) <- after.(i) + 1);
  Alcotest.(check int) "region after shutdown respawns workers" 64
    (Array.fold_left ( + ) 0 after)

let test_with_jobs_scoping () =
  let before = Pool.default_jobs () in
  Alcotest.(check int) "with_jobs applies inside" 3
    (Pool.with_jobs 3 Pool.default_jobs);
  Alcotest.(check int) "with_jobs restores" before (Pool.default_jobs ());
  Alcotest.check_raises "jobs = 0 rejected"
    (Invalid_argument "Pool: jobs must be >= 1") (fun () ->
      Pool.parallel_for ~jobs:0 ~n:1 (fun _ -> ()))

let test_map_chunked_tiles_range () =
  List.iter
    (fun jobs ->
      let chunks =
        Pool.parallel_map_chunked ~jobs ~n:97 (fun ~lo ~hi -> (lo, hi))
      in
      let next = ref 0 in
      Array.iter
        (fun (lo, hi) ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d: chunks contiguous" jobs)
            !next lo;
          if hi < lo then Alcotest.fail "chunk with hi < lo";
          next := hi)
        chunks;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: chunks cover [0,n)" jobs)
        97 !next)
    jobs_under_test

let test_reduce_bitwise_identical () =
  let fold acc i = acc +. (sin (float_of_int i) *. 1000.) in
  let sum jobs =
    Pool.parallel_reduce ~jobs ~n:100_000 ~init:0. ~fold ~combine:( +. ) ()
  in
  let reference = Int64.bits_of_float (sum 1) in
  List.iter
    (fun jobs ->
      Alcotest.(check int64)
        (Printf.sprintf "float sum bits, jobs=%d" jobs)
        reference
        (Int64.bits_of_float (sum jobs)))
    jobs_under_test

(* ---------- the seeded counter-example: shared captures diverge -------- *)

(* A deliberately planted shared-capture bug, kept test-only: the chunk
   body below mutates a captured accumulator — exactly the shape
   geacc_analyze's [par-shared-write] rule rejects (the [ref_direct]
   fixture in test/lint/effects.t flags this statically). The pool makes
   no ordering promise for such writes, and this test proves the analyzer
   is guarding something real: the order the chunks append in diverges
   between jobs=1 and jobs=4. The @analyze alias scans lib/, bin/ and
   bench/, so production code cannot ship this shape; the mutex keeps the
   demonstration a pure ordering nondeterminism rather than a torn
   write. *)
let test_shared_capture_diverges () =
  let order jobs =
    let acc = ref [] in
    let m = Mutex.create () in
    Pool.parallel_for ~jobs ~n:4 (fun i ->
        (* Delay chunk 0 so concurrent runs all but surely finish another
           chunk first; under jobs=1 the delay cannot reorder anything. *)
        if i = 0 then Unix.sleepf 0.02;
        Mutex.lock m;
        acc := i :: !acc;
        Mutex.unlock m);
    List.rev !acc
  in
  Alcotest.(check (list int))
    "jobs=1 appends in the sequential order" [ 0; 1; 2; 3 ] (order 1);
  let rec attempt k =
    if order 4 <> [ 0; 1; 2; 3 ] then ()
    else if k = 0 then
      Alcotest.fail
        "jobs=4 never diverged from the sequential order in 20 runs"
    else attempt (k - 1)
  in
  attempt 20

(* ---------- MCF network determinism ---------- *)

let arc_dump g =
  let b = Buffer.create 4096 in
  Graph.fold_forward_arcs g ~init:() ~f:(fun () a ->
      Buffer.add_string b
        (Printf.sprintf "%d>%d c%d w%d;" (Graph.src g a) (Graph.dst g a)
           (Graph.initial_capacity g a)
           (Graph.icost g a)));
  Buffer.contents b

let test_mcf_network_identical () =
  let instance =
    Synthetic.generate ~seed:7
      { Synthetic.default with Synthetic.n_events = 12; n_users = 90 }
  in
  let n1 = Mincostflow.build_network ~jobs:1 instance in
  let reference = arc_dump n1.Mincostflow.graph in
  List.iter
    (fun jobs ->
      let n = Mincostflow.build_network ~jobs instance in
      Alcotest.(check string)
        (Printf.sprintf "arc dump, jobs=%d" jobs)
        reference
        (arc_dump n.Mincostflow.graph);
      Alcotest.(check int)
        (Printf.sprintf "pair arcs, jobs=%d" jobs)
        n1.Mincostflow.pair_arcs n.Mincostflow.pair_arcs)
    jobs_under_test

(* ---------- full-solver determinism ---------- *)

let test_solvers_identical_across_jobs () =
  let algorithms = [ Solver.Greedy; Solver.Min_cost_flow ] in
  for seed = 1 to 8 do
    let cfg =
      {
        Synthetic.default with
        Synthetic.n_events = 8 + seed;
        n_users = 60 + (7 * seed);
        dim = 4;
        conflict_ratio = 0.3;
      }
    in
    (* The instance is generated inside with_jobs so index construction
       follows the same knob as the solve. *)
    let run jobs algorithm =
      Pool.with_jobs jobs (fun () ->
          let instance = Synthetic.generate ~seed cfg in
          let m =
            Solver.run ~rng:(Rng.create ~seed:(seed + 1000)) algorithm
              instance
          in
          (Matching.pairs m, Int64.bits_of_float (Matching.maxsum m)))
    in
    List.iter
      (fun algorithm ->
        let ref_pairs, ref_bits = run 1 algorithm in
        List.iter
          (fun jobs ->
            let pairs, bits = run jobs algorithm in
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "%s seed=%d jobs=%d: pairs"
                 (Solver.short_name algorithm) seed jobs)
              ref_pairs pairs;
            Alcotest.(check int64)
              (Printf.sprintf "%s seed=%d jobs=%d: maxsum bits"
                 (Solver.short_name algorithm) seed jobs)
              ref_bits bits)
          jobs_under_test)
      algorithms
  done

let suite =
  [
    Alcotest.test_case "empty ranges" `Quick test_empty_range;
    Alcotest.test_case "parallel_for covers every index" `Quick
      test_for_covers_each_index;
    Alcotest.test_case "lowest failing chunk's exception wins" `Quick
      test_exception_lowest_chunk_wins;
    Alcotest.test_case "explicit nested region rejected" `Quick
      test_nested_explicit_rejected;
    Alcotest.test_case "ambient nested call degrades to sequential" `Quick
      test_nested_ambient_degrades;
    Alcotest.test_case "pool reuse after failure and shutdown" `Quick
      test_reuse_after_failure_and_shutdown;
    Alcotest.test_case "with_jobs scoping and validation" `Quick
      test_with_jobs_scoping;
    Alcotest.test_case "map_chunked tiles the range in order" `Quick
      test_map_chunked_tiles_range;
    Alcotest.test_case "parallel_reduce is bitwise jobs-independent" `Quick
      test_reduce_bitwise_identical;
    Alcotest.test_case "shared captures diverge across jobs" `Quick
      test_shared_capture_diverges;
    Alcotest.test_case "MCF network identical across jobs" `Quick
      test_mcf_network_identical;
    Alcotest.test_case "solver arrangements identical across jobs" `Quick
      test_solvers_identical_across_jobs;
  ]
