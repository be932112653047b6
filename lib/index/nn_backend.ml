type index = {
  size : int;
  stream : query:Point.t -> max_dist:float -> Ranked.t;
}

type t = {
  name : string;
  build : Point.t array -> index;
}

let scan points ~query ~max_dist =
  Ranked.scan ~n:(Array.length points) ~cutoff:max_dist (fun i ->
      Point.dist query points.(i))

let scanned points = { size = Array.length points; stream = scan points }

(* The regime is a function of the points' dimension, fixed at build time:
   best-first search pays off only while bounding boxes prune. *)
let kd_tree =
  {
    name = "kd";
    build =
      (fun points ->
        if Array.length points > 0 && Point.dim points.(0) >= 10 then
          scanned points
        else
          let tree = Kd_tree.build points in
          {
            size = Array.length points;
            stream =
              (fun ~query ~max_dist ->
                Nn_stream.create tree query ~max_dist ());
          });
  }

let linear = { name = "linear"; build = scanned }

let va_file =
  {
    name = "vafile";
    build =
      (fun points ->
        let idx = Va_file.build points in
        {
          size = Va_file.size idx;
          stream =
            (fun ~query ~max_dist ->
              Va_file.ranked (Va_file.stream idx ~query ~max_dist));
        });
  }

let i_distance =
  {
    name = "idistance";
    build =
      (fun points ->
        let idx = I_distance.build points in
        {
          size = I_distance.size idx;
          stream =
            (fun ~query ~max_dist ->
              I_distance.ranked (I_distance.stream idx ~query ~max_dist));
        });
  }

let all = [ kd_tree; linear; va_file; i_distance ]

let of_string name =
  let name = String.lowercase_ascii name in
  match List.find_opt (fun b -> b.name = name) all with
  | Some b -> Ok b
  | None ->
      Error
        (Printf.sprintf "unknown index backend %S (expected one of: %s)" name
           (String.concat ", " (List.map (fun b -> b.name) all)))
