(* Switch to a scan either when the caller drains deep, or when the
   cursor's own effort exceeds what a full linear scan would have cost —
   in high dimension best-first search degenerates even for the first few
   ranks. The memo's prefix is dropped and reproduced by the scan's sort. *)
let create tree query ?(max_dist = infinity) ?(switch_threshold = 64) () =
  let cursor = Kd_tree.cursor tree query ~max_dist () in
  let n = Kd_tree.size tree in
  Ranked.memo (fun ranked rank ->
      if rank > switch_threshold || Kd_tree.work cursor > 2 * n then begin
        Ranked.rescan ranked ~n ~cutoff:max_dist (fun i ->
            Point.dist query (Kd_tree.point tree i));
        true
      end
      else
        match Kd_tree.next cursor with
        | Some (i, dist) ->
            Ranked.push ranked i dist;
            true
        | None -> false)
