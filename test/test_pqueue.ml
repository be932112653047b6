(* Priority queues: heap-sort behaviour, invariants, the bucket queue
   against a sorted-list oracle, plus QCheck properties. *)

open Geacc_pqueue

let int_cmp = Int.compare

let test_binary_basic () =
  let h = Binary_heap.create ~cmp:int_cmp () in
  Alcotest.(check bool) "fresh heap empty" true (Binary_heap.is_empty h);
  Alcotest.(check (option int)) "peek empty" None (Binary_heap.peek h);
  Alcotest.(check (option int)) "pop empty" None (Binary_heap.pop h);
  Binary_heap.push h 5;
  Binary_heap.push h 1;
  Binary_heap.push h 3;
  Alcotest.(check int) "length" 3 (Binary_heap.length h);
  Alcotest.(check (option int)) "peek min" (Some 1) (Binary_heap.peek h);
  Alcotest.(check (list int)) "sorted drain" [ 1; 3; 5 ]
    (Binary_heap.pop_all_sorted h)

let test_binary_exn () =
  let h = Binary_heap.create ~cmp:int_cmp () in
  Alcotest.check_raises "peek_exn empty"
    (Invalid_argument "Binary_heap.peek_exn: empty heap") (fun () ->
      ignore (Binary_heap.peek_exn h));
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Binary_heap.pop_exn: empty heap") (fun () ->
      ignore (Binary_heap.pop_exn h))

let test_binary_of_array () =
  let a = [| 9; 2; 7; 2; 0; -3; 11 |] in
  let h = Binary_heap.of_array ~cmp:int_cmp a in
  Alcotest.(check bool) "heapify invariant" true (Binary_heap.check_invariant h);
  let expected = Array.to_list (Array.copy a) |> List.sort compare in
  Alcotest.(check (list int)) "heapify drains sorted" expected
    (Binary_heap.pop_all_sorted h);
  Alcotest.(check (array int)) "input untouched" [| 9; 2; 7; 2; 0; -3; 11 |] a

let test_binary_duplicates () =
  let h = Binary_heap.create ~cmp:int_cmp () in
  List.iter (Binary_heap.push h) [ 4; 4; 4; 1; 1 ];
  Alcotest.(check (list int)) "duplicates kept" [ 1; 1; 4; 4; 4 ]
    (Binary_heap.pop_all_sorted h)

let test_binary_max_heap () =
  let h = Binary_heap.create ~cmp:(fun a b -> Int.compare b a) () in
  List.iter (Binary_heap.push h) [ 2; 9; 4 ];
  Alcotest.(check (option int)) "flipped cmp gives max" (Some 9)
    (Binary_heap.pop h)

let test_binary_clear () =
  let h = Binary_heap.create ~cmp:int_cmp () in
  List.iter (Binary_heap.push h) [ 1; 2; 3 ];
  Binary_heap.clear h;
  Alcotest.(check bool) "cleared" true (Binary_heap.is_empty h);
  Binary_heap.push h 10;
  Alcotest.(check (option int)) "usable after clear" (Some 10)
    (Binary_heap.pop h)

let test_bucket_basic () =
  let q = Int_bucket_queue.create () in
  Alcotest.(check bool) "empty" true (Int_bucket_queue.is_empty q);
  Alcotest.(check (option (pair int int))) "pop empty" None
    (Int_bucket_queue.pop q);
  Int_bucket_queue.push q 25 1;
  Int_bucket_queue.push q 5 2;
  Int_bucket_queue.push q 15 3;
  Alcotest.(check int) "length" 3 (Int_bucket_queue.length q);
  Alcotest.(check bool) "invariant" true (Int_bucket_queue.check_invariant q);
  Alcotest.(check (option (pair int int))) "first" (Some (5, 2))
    (Int_bucket_queue.pop q);
  (* Monotone contract: pushing below the floor (5) raises. *)
  Alcotest.check_raises "below floor"
    (Invalid_argument "Int_bucket_queue.push: key below the monotone floor")
    (fun () -> Int_bucket_queue.push q 4 9);
  Int_bucket_queue.push q 5 4;
  Alcotest.(check int) "pop_min payload" 4 (Int_bucket_queue.pop_min q);
  Alcotest.(check int) "its key is the floor" 5 (Int_bucket_queue.floor q);
  Alcotest.(check (option (pair int int))) "then 15" (Some (15, 3))
    (Int_bucket_queue.pop q);
  Alcotest.(check (option (pair int int))) "then 25" (Some (25, 1))
    (Int_bucket_queue.pop q);
  Alcotest.(check bool) "drained" true (Int_bucket_queue.is_empty q);
  Alcotest.check_raises "pop_min on empty"
    (Invalid_argument "Int_bucket_queue.pop_min: empty queue") (fun () ->
      ignore (Int_bucket_queue.pop_min q : int))

let test_bucket_one_bucket () =
  (* Empty key range: every entry shares one key, so all of them live in
     bucket 0 and pops never re-deal. *)
  let q = Int_bucket_queue.create () in
  for p = 0 to 99 do
    Int_bucket_queue.push q 42 p
  done;
  Alcotest.(check bool) "invariant" true (Int_bucket_queue.check_invariant q);
  let seen = ref [] in
  let rec drain () =
    match Int_bucket_queue.pop q with
    | None -> ()
    | Some (k, p) ->
        Alcotest.(check int) "constant key" 42 k;
        seen := p :: !seen;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "every payload once"
    (List.init 100 Fun.id)
    (List.sort compare !seen)

let test_bucket_clear_reuse () =
  let q = Int_bucket_queue.create () in
  Int_bucket_queue.push q 1000 1;
  ignore (Int_bucket_queue.pop q);
  (* The floor is now 1000; clear must reset it so small keys work again. *)
  Int_bucket_queue.clear q;
  Alcotest.(check bool) "cleared" true (Int_bucket_queue.is_empty q);
  Int_bucket_queue.push q 3 7;
  Alcotest.(check (option (pair int int))) "usable after clear" (Some (3, 7))
    (Int_bucket_queue.pop q)

(* QCheck properties *)

let prop_binary_sorts =
  QCheck.Test.make ~name:"binary heap drains any list sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Binary_heap.create ~cmp:int_cmp () in
      List.iter (Binary_heap.push h) xs;
      Binary_heap.pop_all_sorted h = List.sort compare xs)

(* Live keys of the oracle below: key -> how many entries carry it. *)
module Key_counts = Map.Make (Int)

let prop_bucket_matches_sorted =
  (* Random monotone streams: interleave pushes (key = current floor + a
     small delta, keeping the bucket queue's contract satisfied) with
     pops. Each pop must return the smallest key pushed and not yet popped
     — checked against an ordered multiset of the live keys, so a pop
     costs the oracle O(log k), not a re-sort — and the popped (key,
     payload) multiset must be exactly the pushed one (payload order
     among equal keys is unspecified, so ties are normalised by
     sorting). *)
  QCheck.Test.make ~name:"bucket queue matches sorted oracle" ~count:300
    QCheck.(list (option (pair (int_bound 1000) small_int)))
    (fun ops ->
      let q = Int_bucket_queue.create () in
      let live = ref Key_counts.empty and floor = ref 0 and next = ref 0 in
      let pushed = ref [] and popped = ref [] in
      let ok = ref true in
      let pop () =
        match (Int_bucket_queue.pop q, Key_counts.min_binding_opt !live) with
        | None, None -> false
        | Some (k, p), Some (smallest, n) ->
            if k <> smallest then ok := false;
            live :=
              if n = 1 then Key_counts.remove smallest !live
              else Key_counts.add smallest (n - 1) !live;
            floor := k;
            popped := (k, p) :: !popped;
            true
        | _ ->
            ok := false;
            false
      in
      List.iter
        (function
          | Some (delta, _tag) ->
              let k = !floor + delta in
              Int_bucket_queue.push q k !next;
              live :=
                Key_counts.update k
                  (fun n -> Some (1 + Option.value n ~default:0))
                  !live;
              pushed := (k, !next) :: !pushed;
              incr next
          | None -> ignore (pop ()))
        ops;
      while pop () do
        ()
      done;
      !ok
      && Int_bucket_queue.check_invariant q
      && List.sort compare !pushed = List.sort compare !popped)

let prop_pop_min_matches_sorted =
  (* The Dijkstra loop's pop: random monotone pushes (key = floor + a
     small delta) interleaved with [pop_min]s. Each pop's key, read as the
     floor, must be the smallest live key of a sorted model, and its
     payload one that was pushed with that key and not popped yet. *)
  QCheck.Test.make ~name:"bucket queue pop_min matches sorted model"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 300) (option (int_bound 1000)))
    (fun ops ->
      let q = Int_bucket_queue.create () in
      let live = ref [] and next = ref 0 and ok = ref true in
      let pop () =
        match List.sort compare !live with
        | [] -> false
        | (k, _) :: _ ->
            let p = Int_bucket_queue.pop_min q in
            let key = Int_bucket_queue.floor q in
            if key <> k || not (List.mem (key, p) !live) then ok := false;
            live := List.filter (fun e -> e <> (key, p)) !live;
            true
      in
      List.iter
        (function
          | Some delta ->
              let k = Int_bucket_queue.floor q + delta in
              Int_bucket_queue.push q k !next;
              live := (k, !next) :: !live;
              incr next
          | None -> ignore (pop ()))
        ops;
      while pop () do
        ()
      done;
      !ok && Int_bucket_queue.is_empty q && Int_bucket_queue.check_invariant q)

let prop_interleaved_ops =
  (* Random push/pop interleavings preserve the heap invariant. *)
  QCheck.Test.make ~name:"binary heap invariant under interleaving" ~count:100
    QCheck.(list (option small_int))
    (fun ops ->
      let h = Binary_heap.create ~cmp:int_cmp () in
      List.iter
        (function
          | Some x -> Binary_heap.push h x
          | None -> ignore (Binary_heap.pop h))
        ops;
      Binary_heap.check_invariant h)

let suite =
  [
    Alcotest.test_case "binary basic" `Quick test_binary_basic;
    Alcotest.test_case "binary exn" `Quick test_binary_exn;
    Alcotest.test_case "binary of_array" `Quick test_binary_of_array;
    Alcotest.test_case "binary duplicates" `Quick test_binary_duplicates;
    Alcotest.test_case "binary max-heap" `Quick test_binary_max_heap;
    Alcotest.test_case "binary clear" `Quick test_binary_clear;
    Alcotest.test_case "bucket queue basic" `Quick test_bucket_basic;
    Alcotest.test_case "bucket queue one bucket" `Quick test_bucket_one_bucket;
    Alcotest.test_case "bucket queue clear reuse" `Quick
      test_bucket_clear_reuse;
    QCheck_alcotest.to_alcotest prop_binary_sorts;
    QCheck_alcotest.to_alcotest prop_bucket_matches_sorted;
    QCheck_alcotest.to_alcotest prop_pop_min_matches_sorted;
    QCheck_alcotest.to_alcotest prop_interleaved_ops;
  ]
