(* Reference min-cost flow for the differential tests: successive shortest
   paths with Bellman–Ford over an explicit arc list — no potentials, no
   CSR, no bucket queue, no pruning. Slow and plainly correct, so the
   production kernel (Geacc_flow.Mcf.solve_int) can be checked against it
   on small networks. Costs are integers, negative ones included. *)

type arc = { src : int; dst : int; cap : int; cost : int }

type result = {
  flow : int;
  cost : int;
  flows : int array;  (* flow carried by each input arc, in input order *)
}

(* Residual arc [2i] is input arc [i], [2i + 1] its reverse. *)
let residual arcs =
  let a = Array.of_list arcs in
  let m = 2 * Array.length a in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let cap = Array.make m 0 and cost = Array.make m 0 in
  Array.iteri
    (fun i (x : arc) ->
      src.(2 * i) <- x.src;
      dst.(2 * i) <- x.dst;
      cap.(2 * i) <- x.cap;
      cost.(2 * i) <- x.cost;
      src.((2 * i) + 1) <- x.dst;
      dst.((2 * i) + 1) <- x.src;
      cost.((2 * i) + 1) <- -x.cost)
    a;
  (src, dst, cap, cost)

(* Bellman–Ford over the arcs with positive capacity: distances ([max_int]
   = unreachable) and the arc reaching each node, or [None] when a
   negative cycle is reachable from [source]. *)
let shortest_paths ~n ~source (src, dst, cap, cost) =
  let dist = Array.make n max_int and pred = Array.make n (-1) in
  dist.(source) <- 0;
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    Array.iteri
      (fun a s ->
        if cap.(a) > 0 && dist.(s) < max_int then begin
          let d = dist.(s) + cost.(a) in
          if d < dist.(dst.(a)) then begin
            dist.(dst.(a)) <- d;
            pred.(dst.(a)) <- a;
            changed := true
          end
        end)
      src
  done;
  if !changed then None else Some (dist, pred)

let distances ~n ~source arcs =
  Option.map fst (shortest_paths ~n ~source (residual arcs))

(* Augments along a cheapest path until the sink is unreachable or the
   path cost reaches [stop_below] — Mcf.solve_int's stopping rule. *)
let solve ~n ~source ~sink ?(stop_below = max_int) arcs =
  let ((src, _, cap, _) as r) = residual arcs in
  let flow = ref 0 and total = ref 0 and go = ref true in
  while !go do
    match shortest_paths ~n ~source r with
    | None -> invalid_arg "Ref_mcf.solve: negative cycle"
    | Some (dist, pred) ->
        if dist.(sink) = max_int || dist.(sink) >= stop_below then go := false
        else begin
          let rec walk v f =
            if v <> source then begin
              f pred.(v);
              walk src.(pred.(v)) f
            end
          in
          let units = ref max_int in
          walk sink (fun a -> units := Int.min !units cap.(a));
          walk sink (fun a ->
              cap.(a) <- cap.(a) - !units;
              cap.(a lxor 1) <- cap.(a lxor 1) + !units);
          flow := !flow + !units;
          total := !total + (!units * dist.(sink))
        end
  done;
  let flows = Array.of_list (List.mapi (fun i _ -> cap.((2 * i) + 1)) arcs) in
  { flow = !flow; cost = !total; flows }
