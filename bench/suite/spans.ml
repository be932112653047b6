(* In-memory span recorder for the traced run.

   A span has a name, a start, an end, a parent span and an op id. The
   benchmark opens one op span per operation and a child span around each
   call it makes into a layer; spans nest through a stack, so a layer's
   self time is its duration minus what its children covered. Nothing is
   written until the run ends ({!write}). With recording disabled,
   {!span} and {!op} only run their body — the untraced twin of a traced
   op executes the same calls. *)

type span = {
  name : string;
  op_id : int;
  parent : int;  (* index into the recorder, -1 for an op *)
  start : float;
  mutable stop : float;
  mutable child_s : float;  (* covered by direct children *)
}

let origin = Unix.gettimeofday ()
let enabled = ref false
let recorded : span list ref = ref []
let count = ref 0
let stack : (int * span) list ref = ref []

let reset () =
  recorded := [];
  count := 0;
  stack := []

let set_enabled b = enabled := b

let push ~op_id name =
  let parent, op_id =
    match !stack with (i, s) :: _ -> (i, s.op_id) | [] -> (-1, op_id)
  in
  let s =
    { name; op_id; parent; start = Unix.gettimeofday (); stop = 0.; child_s = 0. }
  in
  let id = !count in
  incr count;
  recorded := s :: !recorded;
  stack := (id, s) :: !stack;
  s

let pop s =
  s.stop <- Unix.gettimeofday ();
  match !stack with
  | _ :: rest ->
      stack := rest;
      (match rest with
      | (_, p) :: _ -> p.child_s <- p.child_s +. (s.stop -. s.start)
      | [] -> ())
  | [] -> ()

let run ~op_id name f =
  if not !enabled then f ()
  else begin
    let s = push ~op_id name in
    Fun.protect ~finally:(fun () -> pop s) f
  end

(* An op is a root span; [op_id] identifies it and its descendants. *)
let op ~op_id name f = run ~op_id name f

let span name f = run ~op_id:(-1) name f

(* Total self seconds per span name, and per op name the wall seconds. *)
let self_times () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = s.stop -. s.start -. s.child_s in
      let prev = Option.value (Hashtbl.find_opt tbl s.name) ~default:0. in
      Hashtbl.replace tbl s.name (prev +. self))
    !recorded;
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:0.

let wall_of name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0. !recorded

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("id", Json.Num (float_of_int i));
                    ("name", Json.Str s.name);
                    ("op", Json.Num (float_of_int s.op_id));
                    ("parent", Json.Num (float_of_int s.parent));
                    ("start_s", Json.Num (s.start -. origin));
                    ("end_s", Json.Num (s.stop -. origin));
                  ])))
        (List.rev !recorded);
      output_string oc "\n]\n")
