exception Violation of { site : string; detail : string }

let () =
  Printexc.register_printer (function
    | Violation { site; detail } ->
        Some (Printf.sprintf "Audit.Violation at %s: %s" site detail)
    | _ -> None)

let state =
  ref
    (match Sys.getenv_opt "GEACC_AUDIT" with
    | None | Some ("" | "0" | "false") -> false
    | Some _ -> true)

let[@inline] enabled () = !state
let set_enabled b = state := b

let with_enabled b f =
  let saved = !state in
  state := b;
  Fun.protect ~finally:(fun () -> state := saved) f

let violation_count = ref 0

let violations () = !violation_count

let fail ~site detail =
  incr violation_count;
  raise (Violation { site; detail })

let failf ~site fmt = Printf.ksprintf (fail ~site) fmt

module Flow = struct
  module G = Geacc_flow.Graph

  let check_capacity ~site g =
    let m = G.arc_count g in
    let a = ref 0 in
    while !a < m do
      let fwd = !a and bwd = !a + 1 in
      let r_fwd = G.residual_capacity g fwd
      and r_bwd = G.residual_capacity g bwd in
      if r_fwd < 0 then
        failf ~site "arc %d has negative residual capacity %d" fwd r_fwd;
      if r_bwd < 0 then
        failf ~site "residual arc %d has negative capacity %d" bwd r_bwd;
      let total = G.initial_capacity g fwd + G.initial_capacity g bwd in
      if r_fwd + r_bwd <> total then
        failf ~site
          "arc pair %d/%d leaks capacity: residual %d + %d <> initial %d" fwd
          bwd r_fwd r_bwd total;
      let fl = G.flow g fwd in
      if fl < 0 || fl > G.initial_capacity g fwd then
        failf ~site "arc %d carries flow %d outside [0, %d]" fwd fl
          (G.initial_capacity g fwd);
      a := !a + 2
    done

  let check_conservation ~site g ~source ~sink =
    let n = G.node_count g in
    let net = Array.make n 0 in
    G.fold_forward_arcs g ~init:() ~f:(fun () a ->
        let fl = G.flow g a in
        net.(G.dst g a) <- net.(G.dst g a) + fl;
        net.(G.src g a) <- net.(G.src g a) - fl);
    for v = 0 to n - 1 do
      if v <> source && v <> sink && net.(v) <> 0 then
        failf ~site "node %d violates conservation: net inflow %d" v net.(v)
    done;
    if source < n && sink < n && net.(source) + net.(sink) <> 0 then
      failf ~site "source deficit %d does not match sink excess %d"
        (-net.(source)) net.(sink)

  let check_csr ~site g =
    if not (G.csr_valid g) then
      fail ~site "CSR form is stale (arcs added since finalize_csr)";
    let n = G.node_count g and m = G.arc_count g in
    (* Offsets: monotone, starting at 0, covering exactly the arc store. *)
    if n > 0 && G.out_begin g 0 <> 0 then
      failf ~site "CSR offset of node 0 is %d, expected 0" (G.out_begin g 0);
    for v = 0 to n - 1 do
      if G.out_end g v < G.out_begin g v then
        failf ~site "CSR offsets of node %d decrease: [%d, %d)" v
          (G.out_begin g v) (G.out_end g v);
      if v < n - 1 && G.out_end g v <> G.out_begin g (v + 1) then
        failf ~site "CSR offsets leave a gap after node %d: %d <> %d" v
          (G.out_end g v)
          (G.out_begin g (v + 1))
    done;
    if n > 0 && G.out_end g (n - 1) <> m then
      failf ~site "CSR offsets cover %d positions, expected %d arcs"
        (G.out_end g (n - 1))
        m;
    (* Positions: a permutation of the arc ids, each agreeing with the arc
       store on src/dst/cost, with the positional residual capacity
       mirroring the arc-indexed one. *)
    let seen = Array.make (Stdlib.max m 1) false in
    for v = 0 to n - 1 do
      for p = G.out_begin g v to G.out_end g v - 1 do
        let a = G.pos_arc g p in
        if a < 0 || a >= m then
          failf ~site "CSR position %d stores invalid arc id %d" p a;
        if seen.(a) then
          failf ~site "arc %d appears at two CSR positions" a;
        seen.(a) <- true;
        if G.arc_position g a <> p then
          failf ~site "arc %d maps to position %d, stored at %d" a
            (G.arc_position g a) p;
        if G.src g a <> v then
          failf ~site "CSR position %d (node %d) stores arc %d of node %d" p
            v a (G.src g a);
        if G.pos_dst g p <> G.dst g a then
          failf ~site "CSR position %d: dst %d <> arc %d's dst %d" p
            (G.pos_dst g p) a (G.dst g a);
        if G.pos_icost g p <> G.icost g a then
          failf ~site "CSR position %d: icost %d <> arc %d's icost %d" p
            (G.pos_icost g p) a (G.icost g a);
        if G.pos_residual_capacity g p <> G.residual_capacity g a then
          failf ~site
            "CSR position %d: residual capacity %d out of sync with arc %d \
             (%d)"
            p
            (G.pos_residual_capacity g p)
            a
            (G.residual_capacity g a)
      done
    done;
    (* Slice layout: [forward arcs, cost-ascending | live residual arcs |
       dead residual arcs], the live run being exactly the residual
       positions with capacity > 0, and the cursor on the first forward
       position with capacity > 0 (or at the residual run). *)
    for v = 0 to n - 1 do
      let fb = G.out_begin g v and rb = G.res_begin g v in
      let le = G.live_end g v and oe = G.out_end g v in
      if not (fb <= rb && rb <= le && le <= oe) then
        failf ~site "CSR boundaries of node %d out of order: %d %d %d %d" v
          fb rb le oe;
      let cur = G.forward_cursor g v in
      if cur < fb || cur > rb then
        failf ~site "CSR cursor of node %d at %d, outside its forward run [%d, %d]"
          v cur fb rb;
      for p = fb to cur - 1 do
        if G.pos_residual_capacity g p > 0 then
          failf ~site
            "CSR cursor of node %d at %d passes position %d, which has \
             capacity %d"
            v cur p
            (G.pos_residual_capacity g p)
      done;
      if cur < rb && G.pos_residual_capacity g cur <= 0 then
        failf ~site "CSR cursor of node %d sits on position %d of capacity %d"
          v cur
          (G.pos_residual_capacity g cur);
      for p = fb to rb - 1 do
        let a = G.pos_arc g p in
        if a land 1 <> 0 then
          failf ~site "CSR forward run of node %d holds residual arc %d" v a;
        if p > fb then begin
          let b = G.pos_arc g (p - 1) in
          let cb = G.pos_icost g (p - 1) and ca = G.pos_icost g p in
          if cb > ca || (cb = ca && b > a) then
            failf ~site
              "CSR forward run of node %d not cost-ascending at position %d"
              v p
        end
      done;
      for p = rb to oe - 1 do
        let a = G.pos_arc g p in
        if a land 1 = 0 then
          failf ~site "CSR residual run of node %d holds forward arc %d" v a;
        if p < le <> (G.pos_residual_capacity g p > 0) then
          failf ~site
            "CSR residual arc %d of node %d (capacity %d) is on the wrong \
             side of the live run"
            a v
            (G.pos_residual_capacity g p)
      done
    done

  (* The integer potentials telescope exactly, so there is no slack — any
     negative reduced cost is a bug. *)
  let check_reduced_costs_int ~site g ~potential =
    let m = G.arc_count g in
    for a = 0 to m - 1 do
      if G.residual_capacity g a > 0 then begin
        let rc =
          G.icost g a + potential.(G.src g a) - potential.(G.dst g a)
        in
        if rc < 0 then
          failf ~site "arc %d (%d -> %d) has negative integer reduced cost %d"
            a (G.src g a) (G.dst g a) rc
      end
    done

  let check_sink_potential_max ~site ~potential ~sink =
    Array.iteri
      (fun v p ->
        if p > potential.(sink) then
          failf ~site "potential of node %d (%d) exceeds the sink's (%d)" v p
            potential.(sink))
      potential
end

module Heap = struct
  let check_binary ~site h =
    if not (Geacc_pqueue.Binary_heap.check_invariant h) then
      fail ~site "binary heap order violated"

  let check_bucket ~site q =
    if not (Geacc_pqueue.Int_bucket_queue.check_invariant q) then
      fail ~site "bucket queue placement or size violated"
end
