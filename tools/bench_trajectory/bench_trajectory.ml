(* bench_trajectory — fold bench JSON artifacts into a wall-time trajectory.

   Usage:
     bench_trajectory --sha SHA [--trajectory FILE] [--threshold PCT]
       BENCH_*.json...

   Each input artifact is scanned for every object carrying a numeric
   "wall_s" field; the dotted path to the object (array elements named by
   their "name" member when they have one) identifies the cell. A cell
   that also carries "peak_bytes" contributes its peak-heap measurement
   alongside. One snapshot per artifact — { sha; experiment; cells } — is
   appended to the trajectory file (default BENCH_TRAJECTORY.json), so
   successive CI runs accumulate a per-commit history of every timed
   cell.

   Before appending, each new snapshot is compared against the most recent
   prior snapshot of the same experiment: any cell whose wall time or peak
   heap grew by more than the threshold (default 25%) prints a
   `::warning::` line in GitHub problem-matcher syntax, and so does any
   previously-tracked cell that the new artifact no longer carries — a
   renamed or silently-dropped bench cell would otherwise vanish from the
   history without anyone noticing. Regressions warn — bench numbers on
   shared CI runners are too noisy to gate a merge on — so the exit status
   is 0 unless an artifact cannot be read or parsed. *)

(* -- Minimal JSON (stdlib only) ---------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 't' -> Buffer.add_char buf '\t'
              | 'r' -> Buffer.add_char buf '\r'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' ->
                  (* Bench artifacts are ASCII; keep the escape verbatim
                     rather than decoding surrogate pairs. *)
                  if !pos + 4 > n then fail "truncated \\u escape";
                  Buffer.add_string buf "\\u";
                  Buffer.add_string buf (String.sub s !pos 4);
                  pos := !pos + 4
              | _ -> fail "bad escape");
              go ())
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let number_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> number_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let members = ref [] in
          let rec members_loop () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            members := (key, v) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members_loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members_loop ();
          Obj (List.rev !members)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items_loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          items_loop ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec print_json buf indent = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else Buffer.add_string buf (Printf.sprintf "%.9g" f)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape_string s);
      Buffer.add_char buf '"'
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr items ->
      let pad = String.make indent ' ' in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          Buffer.add_string buf "  ";
          print_json buf (indent + 2) v)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf pad;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj members ->
      let pad = String.make indent ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          Buffer.add_string buf "  \"";
          Buffer.add_string buf (escape_string k);
          Buffer.add_string buf "\": ";
          print_json buf (indent + 2) v)
        members;
      Buffer.add_char buf '\n';
      Buffer.add_string buf pad;
      Buffer.add_char buf '}'

let json_to_string v =
  let buf = Buffer.create 1024 in
  print_json buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

(* -- Cell extraction ---------------------------------------------------- *)

(* Every object carrying a numeric "wall_s" leaf, addressed by its dotted
   path. Array elements carrying a string "name" member are addressed by
   that name (stable across reordering); anonymous elements fall back to
   their index. A sibling "peak_bytes" rides along. *)
type cell = { path : string; wall : float; peak : float option }

let collect_cells root =
  let cells = ref [] in
  let rec go path v =
    match v with
    | Obj members ->
        (match List.assoc_opt "wall_s" members with
        | Some (Num wall) ->
            let peak =
              match List.assoc_opt "peak_bytes" members with
              | Some (Num p) -> Some p
              | _ -> None
            in
            cells :=
              { path = String.concat "." (List.rev path); wall; peak }
              :: !cells
        | _ -> ());
        List.iter
          (fun (k, v') ->
            match (k, v') with "wall_s", Num _ -> () | _ -> go (k :: path) v')
          members
    | Arr items ->
        List.iteri
          (fun i v' ->
            let seg =
              match member "name" v' with
              | Some (Str name) -> name
              | _ -> string_of_int i
            in
            go (seg :: path) v')
          items
    | _ -> ()
  in
  go [] root;
  List.rev !cells

let experiment_of ~path root =
  match member "experiment" root with
  | Some (Str e) -> e
  | _ ->
      let base = Filename.remove_extension (Filename.basename path) in
      if String.length base > 6 && String.sub base 0 6 = "BENCH_" then
        String.sub base 6 (String.length base - 6)
      else base

(* -- Trajectory file ---------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_trajectory path =
  if Sys.file_exists path then
    match member "snapshots" (parse_json (read_file path)) with
    | Some (Arr snaps) -> snaps
    | _ -> failwith (path ^ ": expected an object with a \"snapshots\" array")
  else []

let snapshot_cells snap =
  match member "cells" snap with Some (Obj members) -> members | _ -> []

let last_snapshot_for ~experiment snaps =
  List.fold_left
    (fun acc snap ->
      match member "experiment" snap with
      | Some (Str e) when e = experiment -> Some snap
      | _ -> acc)
    None snaps

(* -- Regression check --------------------------------------------------- *)

(* Stored cell values are a bare Num (wall time only — the pre-peak
   snapshot shape, still written for cells without a peak measurement) or
   an object carrying wall_s plus peak_bytes. Snapshots written while
   cells also carried a "peak_mode" tag load the same way; the tag is
   ignored. *)
let stored_wall = function
  | Num f -> Some f
  | Obj _ as o -> (
      match member "wall_s" o with Some (Num f) -> Some f | _ -> None)
  | _ -> None

let stored_peak = function
  | Obj _ as o -> (
      match member "peak_bytes" o with Some (Num p) -> Some p | _ -> None)
  | _ -> None

let warn_regressions ~threshold ~experiment ~prev_sha prev_cells new_cells =
  let any = ref false in
  let grew before now =
    before > 0. && now > before *. (1. +. (threshold /. 100.))
  in
  List.iter
    (fun c ->
      match List.assoc_opt c.path prev_cells with
      | None -> ()
      | Some prev ->
          (match stored_wall prev with
          | Some before when grew before c.wall ->
              any := true;
              Printf.printf
                "::warning title=bench regression::%s %s wall time %.6fs -> \
                 %.6fs (+%.0f%% vs %s, threshold %.0f%%)\n"
                experiment c.path before c.wall
                (100. *. ((c.wall /. before) -. 1.))
                prev_sha threshold
          | _ -> ());
          (match (stored_peak prev, c.peak) with
          | Some before, Some now when grew before now ->
              any := true;
              Printf.printf
                "::warning title=bench regression::%s %s peak heap %.0fB -> \
                 %.0fB (+%.0f%% vs %s, threshold %.0f%%)\n"
                experiment c.path before now
                (100. *. ((now /. before) -. 1.))
                prev_sha threshold
          | _ -> ()))
    new_cells;
  (* The reverse pass: cells the previous snapshot tracked but the new
     artifact no longer carries. Renames and accidental drops both land
     here; either way the trajectory is about to lose a series. *)
  List.iter
    (fun (path, _) ->
      if not (List.exists (fun c -> c.path = path) new_cells) then begin
        any := true;
        Printf.printf
          "::warning title=bench cell disappeared::%s %s was tracked at %s \
           but is missing from this run's artifact\n"
          experiment path prev_sha
      end)
    prev_cells;
  !any

(* -- Driver ------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench_trajectory --sha SHA [--trajectory FILE] [--threshold \
     PCT] BENCH_*.json...";
  exit 2

let () =
  let sha = ref None in
  let trajectory = ref "BENCH_TRAJECTORY.json" in
  let threshold = ref 25. in
  let inputs = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--sha" :: v :: rest ->
        sha := Some v;
        parse_args rest
    | "--trajectory" :: v :: rest ->
        trajectory := v;
        parse_args rest
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 0. -> threshold := f
        | _ -> usage ());
        parse_args rest
    | ("--sha" | "--trajectory" | "--threshold") :: [] -> usage ()
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | file :: rest ->
        inputs := file :: !inputs;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let sha = match !sha with Some s -> s | None -> usage () in
  let inputs = List.rev !inputs in
  if inputs = [] then usage ();
  let snaps = ref (load_trajectory !trajectory) in
  let failures = ref 0 in
  List.iter
    (fun path ->
      match parse_json (read_file path) with
      | exception Sys_error msg ->
          incr failures;
          Printf.eprintf "bench_trajectory: %s\n" msg
      | exception Parse_error msg ->
          incr failures;
          Printf.eprintf "bench_trajectory: %s: %s\n" path msg
      | root ->
          let experiment = experiment_of ~path root in
          let cells = collect_cells root in
          (match last_snapshot_for ~experiment !snaps with
          | Some prev ->
              let prev_sha =
                match member "sha" prev with Some (Str s) -> s | _ -> "?"
              in
              let (_ : bool) =
                warn_regressions ~threshold:!threshold ~experiment ~prev_sha
                  (snapshot_cells prev) cells
              in
              ()
          | None -> ());
          let cell_value c =
            match c.peak with
            | None -> Num c.wall
            | Some p -> Obj [ ("wall_s", Num c.wall); ("peak_bytes", Num p) ]
          in
          let snap =
            Obj
              [
                ("sha", Str sha);
                ("experiment", Str experiment);
                ( "cells",
                  Obj (List.map (fun c -> (c.path, cell_value c)) cells) );
              ]
          in
          snaps := !snaps @ [ snap ];
          Printf.printf "recorded %s: %d cell(s) at %s\n" experiment
            (List.length cells) sha)
    inputs;
  let oc = open_out_bin !trajectory in
  output_string oc (json_to_string (Obj [ ("snapshots", Arr !snaps) ]));
  close_out oc;
  (* Regressions only warn; unreadable artifacts are real CI failures. *)
  exit (if !failures > 0 then 1 else 0)
