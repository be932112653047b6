module Similarity = Geacc_core.Similarity
module Error = Geacc_robust.Error

type tier = Must | Should | Optional

let tier_name = function
  | Must -> "must"
  | Should -> "should"
  | Optional -> "optional"

let tier_of_string = function
  | "must" -> Some Must
  | "should" -> Some Should
  | "optional" -> Some Optional
  | _ -> None

type op =
  | User_arrive of { capacity : int; attrs : float array }
  | User_depart of int
  | Event_open of { capacity : int; attrs : float array }
  | Event_close of int
  | Event_capacity of { v : int; capacity : int }
  | Conflict_add of int * int
  | Stats

type batch = { seq : int; ts : float; tier : tier; ops : op list }

type t = { sim : Similarity.t; batches : batch list }

(* -- printing --------------------------------------------------------- *)

let add_entity buf keyword capacity attrs =
  Buffer.add_string buf keyword;
  Buffer.add_char buf ' ';
  Geacc_io.Instance_io.add_entity buf ~capacity attrs

let add_op buf = function
  | User_arrive { capacity; attrs } -> add_entity buf "user-arrive" capacity attrs
  | User_depart u -> Buffer.add_string buf (Printf.sprintf "user-depart %d\n" u)
  | Event_open { capacity; attrs } -> add_entity buf "event-open" capacity attrs
  | Event_close v -> Buffer.add_string buf (Printf.sprintf "event-close %d\n" v)
  | Event_capacity { v; capacity } ->
      Buffer.add_string buf (Printf.sprintf "event-capacity %d %d\n" v capacity)
  | Conflict_add (v, w) ->
      Buffer.add_string buf (Printf.sprintf "conflict-add %d %d\n" v w)
  | Stats -> Buffer.add_string buf "stats\n"

let add_batch buf b =
  Buffer.add_string buf
    (Printf.sprintf "batch %d %.17g %s\n" b.seq b.ts (tier_name b.tier));
  List.iter (add_op buf) b.ops;
  Buffer.add_string buf "end\n"

let batch_to_string b =
  let buf = Buffer.create 256 in
  add_batch buf b;
  Buffer.contents buf

let save t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "geacc-trace 1\n";
  Buffer.add_string buf (Geacc_io.Instance_io.sim_header t.sim);
  Buffer.add_char buf '\n';
  List.iter (add_batch buf) t.batches;
  Buffer.contents buf

let write ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (save t))

(* -- parsing ---------------------------------------------------------- *)

exception Fail of { line : int; message : string }

let fail ~line fmt =
  Printf.ksprintf (fun message -> raise (Fail { line; message })) fmt

let significant_lines text =
  String.split_on_char '\n' text
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')

let tokens line = String.split_on_char ' ' line |> List.filter (( <> ) "")

let parse_int ~line s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail ~line "expected an integer, got %S" s

let parse_id ~line s =
  let n = parse_int ~line s in
  if n >= 0 then n else fail ~line "id %d is negative" n

let parse_capacity ~line s =
  let c = parse_int ~line s in
  if c >= 0 then c else fail ~line "capacity %d is negative" c

let parse_attr ~line s =
  match float_of_string_opt s with
  | Some x when Float.is_finite x -> x
  | Some _ -> fail ~line "attribute %S is not finite" s
  | None -> fail ~line "expected a number, got %S" s

let parse_ts ~line s =
  match float_of_string_opt s with
  | Some x when Float.is_finite x && x >= 0. -> x
  | Some _ -> fail ~line "timestamp %S must be finite and non-negative" s
  | None -> fail ~line "expected a timestamp, got %S" s

let parse_op ~line l =
  let entity mk = function
    | capacity :: attrs when attrs <> [] ->
        mk
          ~capacity:(parse_capacity ~line capacity)
          ~attrs:(Array.of_list (List.map (parse_attr ~line) attrs))
    | _ -> fail ~line "expected `<capacity> <attr...>`, got %S" l
  in
  match tokens l with
  | "user-arrive" :: rest ->
      entity (fun ~capacity ~attrs -> User_arrive { capacity; attrs }) rest
  | "event-open" :: rest ->
      entity (fun ~capacity ~attrs -> Event_open { capacity; attrs }) rest
  | [ "user-depart"; u ] -> User_depart (parse_id ~line u)
  | [ "event-close"; v ] -> Event_close (parse_id ~line v)
  | [ "event-capacity"; v; c ] ->
      Event_capacity { v = parse_id ~line v; capacity = parse_capacity ~line c }
  | [ "conflict-add"; v; w ] ->
      let v = parse_id ~line v and w = parse_id ~line w in
      if v = w then fail ~line "event %d conflicts with itself" v;
      Conflict_add (v, w)
  | [ "stats" ] -> Stats
  | _ -> fail ~line "unknown operation %S" l

type cursor = { mutable rest : (int * string) list }

let next_line cur =
  match cur.rest with
  | [] -> fail ~line:0 "unexpected end of input"
  | x :: rest ->
      cur.rest <- rest;
      x

let parse_batch_header ~line l =
  match tokens l with
  | [ "batch"; seq; ts; tier ] -> (
      let seq = parse_int ~line seq in
      if seq < 1 then fail ~line "batch seq %d must be >= 1" seq;
      let ts = parse_ts ~line ts in
      match tier_of_string tier with
      | Some tier -> (seq, ts, tier)
      | None -> fail ~line "unknown tier %S (must, should or optional)" tier)
  | _ -> fail ~line "expected `batch <seq> <ts> <tier>`, got %S" l

let parse_batch_body cur ~seq ~ts ~tier =
  let rec ops acc =
    let line, l = next_line cur in
    if l = "end" then List.rev acc else ops (parse_op ~line l :: acc)
  in
  { seq; ts; tier; ops = ops [] }

let wrap f =
  match f () with
  | v -> Ok v
  | exception Fail { line; message } ->
      Error (Error.Parse_error { line; message })

let parse_batch text =
  wrap (fun () ->
      let cur = { rest = significant_lines text } in
      let line, l = next_line cur in
      let seq, ts, tier = parse_batch_header ~line l in
      let b = parse_batch_body cur ~seq ~ts ~tier in
      (match cur.rest with
      | [] -> ()
      | (line, l) :: _ -> fail ~line "trailing content: %S" l);
      b)

let parse text =
  wrap (fun () ->
      let cur = { rest = significant_lines text } in
      (let line, l = next_line cur in
       match tokens l with
       | [ "geacc-trace"; "1" ] -> ()
       | _ -> fail ~line "expected `geacc-trace 1` header, got %S" l);
      let sim =
        let line, l = next_line cur in
        match tokens l with
        | "sim" :: args -> (
            try Geacc_io.Instance_io.parse_sim ~line args
            with Geacc_io.Instance_io.Parse_error { line; message } ->
              fail ~line "%s" message)
        | _ -> fail ~line "expected `sim ...`, got %S" l
      in
      let rec batches acc ~prev_seq ~prev_ts =
        match cur.rest with
        | [] -> List.rev acc
        | _ ->
            let line, l = next_line cur in
            let seq, ts, tier = parse_batch_header ~line l in
            if seq <= prev_seq then
              fail ~line "batch seq %d is not above the previous seq %d" seq
                prev_seq;
            if ts < prev_ts then
              fail ~line "batch ts %g is below the previous ts %g" ts prev_ts;
            let b = parse_batch_body cur ~seq ~ts ~tier in
            batches (b :: acc) ~prev_seq:seq ~prev_ts:ts
      in
      { sim; batches = batches [] ~prev_seq:0 ~prev_ts:0. })

let read ~path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error message -> Error (Error.Io_error { path; message })
  | text -> parse text

let groups batches =
  let rec go acc cur cur_ts = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | b :: rest ->
        if cur <> [] && b.ts = cur_ts then go acc (b :: cur) cur_ts rest
        else
          go
            (if cur = [] then acc else List.rev cur :: acc)
            [ b ] b.ts rest
  in
  go [] [] 0. batches
