open Geacc_core
module Fault = Geacc_robust.Fault

exception Parse_error of { line : int; message : string }

let fail ~line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

(* -- Saving ---------------------------------------------------------- *)

(* Shared with the serve-mode trace/snapshot formats, which carry the same
   `sim ...` header line. *)
let sim_header sim =
  match Similarity.spec sim with
  | Similarity.Spec_euclidean { dim; range } ->
      Printf.sprintf "sim euclidean %d %.17g" dim range
  | Similarity.Spec_gaussian { sigma } ->
      Printf.sprintf "sim gaussian %.17g" sigma
  | Similarity.Spec_cosine -> "sim cosine"
  | Similarity.Spec_custom name ->
      invalid_arg
        (Printf.sprintf "Instance_io: custom similarity %S is not serialisable"
           name)

(* [%.17g] round-trips every finite double exactly. *)
let add_entity buf ~capacity attrs =
  Buffer.add_string buf (string_of_int capacity);
  Array.iter
    (fun x ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Printf.sprintf "%.17g" x))
    attrs;
  Buffer.add_char buf '\n'

let save_instance instance =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "geacc-instance 1";
  line "%s" (sim_header (Instance.similarity instance));
  let side name entities =
    line "%s %d" name (Array.length entities);
    Array.iter
      (fun (e : Entity.t) -> add_entity buf ~capacity:e.Entity.capacity e.Entity.attrs)
      entities
  in
  side "events" (Instance.events instance);
  side "users" (Instance.users instance);
  let cf = Instance.conflicts instance in
  line "conflicts %d" (Conflict.cardinal cf);
  Conflict.iter_pairs cf (fun v w -> line "%d %d" v w);
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_instance ~path instance = write_file path (save_instance instance)

(* -- Loading --------------------------------------------------------- *)

(* Significant lines with their 1-based numbers; comments/blanks dropped. *)
let significant_lines text =
  String.split_on_char '\n' text
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')

let tokens line = String.split_on_char ' ' line |> List.filter (( <> ) "")

let parse_int ~line s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail ~line "expected an integer, got %S" s

let parse_float ~line s =
  match float_of_string_opt s with
  | Some x -> x
  | None -> fail ~line "expected a number, got %S" s

type cursor = { mutable rest : (int * string) list }

let next_line cur =
  match cur.rest with
  | [] -> fail ~line:0 "unexpected end of input"
  | x :: rest ->
      cur.rest <- rest;
      x

let expect_header cur ~keyword =
  let line, l = next_line cur in
  match tokens l with
  | k :: args when k = keyword -> (line, args)
  | _ -> fail ~line "expected %S section, got %S" keyword l

(* A NaN or infinite parameter would load and make every similarity NaN
   or 1, and a non-positive one would escape the constructors as
   [Invalid_argument]. So would finite parameters whose squared scale
   (d T^2, or 2 sigma^2) overflows or underflows. *)
let parse_sim ~line args =
  let positive what s =
    let x = parse_float ~line s in
    if Float.is_finite x && x > 0. then x
    else fail ~line "similarity %s %S is not a positive finite number" what s
  in
  let check_scale scale2 =
    if not (Float.is_finite scale2 && scale2 > 0.) then
      fail ~line "similarity %S: its squared scale %g is not a positive \
                  finite number"
        (String.concat " " args) scale2
  in
  match args with
  | [ "euclidean"; d; r ] ->
      let dim = parse_int ~line d in
      if dim < 1 then fail ~line "similarity dimension %d is not positive" dim;
      let range = positive "range" r in
      check_scale (float_of_int dim *. range *. range);
      Similarity.euclidean ~dim ~range
  | [ "gaussian"; s ] ->
      let sigma = positive "sigma" s in
      check_scale (2. *. sigma *. sigma);
      Similarity.gaussian ~sigma
  | [ "cosine" ] -> Similarity.cosine
  | _ -> fail ~line "unsupported similarity %S" (String.concat " " args)

let parse_attr ~line s =
  let x = parse_float ~line s in
  if Float.is_finite x then x
  else fail ~line "attribute %S is not finite" s

let parse_capacity ~line s =
  let c = parse_int ~line s in
  if c >= 0 then c else fail ~line "capacity %d is negative" c

let parse_entity ~line ~id = function
  | capacity :: attrs when attrs <> [] ->
      Entity.make ~id
        ~attrs:(Array.of_list (List.map (parse_attr ~line) attrs))
        ~capacity:(parse_capacity ~line capacity)
  | toks ->
      fail ~line "expected `<capacity> <attr...>`, got %S" (String.concat " " toks)

let parse_entities cur ~count =
  Array.init count (fun id ->
      let line, l = next_line cur in
      parse_entity ~line ~id (tokens l))

let load_instance text =
  let cur = { rest = significant_lines text } in
  (let line, l = next_line cur in
   match tokens l with
   | [ "geacc-instance"; "1" ] -> ()
   | _ -> fail ~line "expected `geacc-instance 1` header, got %S" l);
  let sim =
    let line, l = next_line cur in
    match tokens l with
    | "sim" :: args -> parse_sim ~line args
    | _ -> fail ~line "expected `sim ...`, got %S" l
  in
  let parse_side keyword =
    let line, args = expect_header cur ~keyword in
    match args with
    | [ n ] -> parse_entities cur ~count:(parse_int ~line n)
    | _ -> fail ~line "expected `%s <count>`" keyword
  in
  let events = parse_side "events" in
  let users = parse_side "users" in
  let line, args = expect_header cur ~keyword:"conflicts" in
  let n_conflicts =
    match args with
    | [ n ] -> parse_int ~line n
    | _ -> fail ~line "expected `conflicts <count>`"
  in
  let n_events = Array.length events in
  let conflicts = Conflict.create ~n_events in
  for _ = 1 to n_conflicts do
    let line, l = next_line cur in
    match tokens l with
    | [ v; w ] ->
        let v = parse_int ~line v and w = parse_int ~line w in
        if v < 0 || v >= n_events then
          fail ~line "conflict event id %d out of range [0, %d)" v n_events;
        if w < 0 || w >= n_events then
          fail ~line "conflict event id %d out of range [0, %d)" w n_events;
        if v = w then fail ~line "event %d conflicts with itself" v;
        if Conflict.mem conflicts v w then
          fail ~line "duplicate conflict pair (%d, %d)" v w;
        Conflict.add conflicts v w
    | _ -> fail ~line "expected `<event> <event>`, got %S" l
  done;
  (match cur.rest with
  | [] -> ()
  | (line, l) :: _ -> fail ~line "trailing content: %S" l);
  try Instance.create ~sim ~events ~users ~conflicts ()
  with Invalid_argument msg -> fail ~line:0 "%s" msg

(* [io.truncate] and [io.corrupt] mangle the bytes after a successful read,
   simulating a half-written or bit-rotted file: the strict parser above
   must then fail with a precise error rather than build a bad instance. *)
let mangle text =
  let text =
    if Fault.fire "io.truncate" then String.sub text 0 (String.length text / 2)
    else text
  in
  if Fault.fire "io.corrupt" then
    match String.index_opt text '0' with
    | None -> text
    | Some i ->
        let b = Bytes.of_string text in
        Bytes.set b i 'x';
        Bytes.to_string b
  else text

let read_file path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if Fault.active () then mangle text else text

let read_instance ~path = load_instance (read_file path)

let load_instance_result text =
  match load_instance text with
  | instance -> Ok instance
  | exception Parse_error { line; message } ->
      Error (Geacc_robust.Error.Parse_error { line; message })

let read_instance_result ~path =
  match read_file path with
  | exception Sys_error message ->
      Error (Geacc_robust.Error.Io_error { path; message })
  | text -> load_instance_result text

let save_pairs pairs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "geacc-matching 1\n";
  Buffer.add_string buf (Printf.sprintf "pairs %d\n" (List.length pairs));
  List.iter
    (fun (v, u) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" v u))
    pairs;
  Buffer.contents buf

let write_pairs ~path pairs = write_file path (save_pairs pairs)

let load_pairs text =
  let cur = { rest = significant_lines text } in
  (let line, l = next_line cur in
   match tokens l with
   | [ "geacc-matching"; "1" ] -> ()
   | _ -> fail ~line "expected `geacc-matching 1` header, got %S" l);
  let line, args = expect_header cur ~keyword:"pairs" in
  let count =
    match args with
    | [ n ] -> parse_int ~line n
    | _ -> fail ~line "expected `pairs <count>`"
  in
  let pairs =
    List.init count (fun _ ->
        let line, l = next_line cur in
        match tokens l with
        | [ v; u ] -> (parse_int ~line v, parse_int ~line u)
        | _ -> fail ~line "expected `<event> <user>`, got %S" l)
  in
  (match cur.rest with
  | [] -> ()
  | (line, l) :: _ -> fail ~line "trailing content: %S" l);
  pairs

let read_pairs ~path = load_pairs (read_file path)
