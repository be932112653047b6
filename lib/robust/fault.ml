exception Injected of { point : string }

let () =
  Printexc.register_printer (function
    | Injected { point } ->
        Some (Printf.sprintf "Fault.Injected at point %s" point)
    | _ -> None)

type trigger =
  | At of int        (* fire on the N-th hit only *)
  | From of int      (* fire on every hit >= N *)

type entry = { point : string; trigger : trigger; mutable hits : int }

type plan = entry list

(* -- known instrumented points ---------------------------------------- *)

(* The registry is documentation plus introspection (DESIGN.md's fault
   table is generated from the same names), not an admission filter: tests
   install throwaway points through [with_plan], so [parse] accepts any
   well-formed token and only the error messages lean on the registry. *)
let known =
  [
    ("io.truncate", "drop the second half of a file's bytes after reading");
    ("io.corrupt", "flip the first digit of a file's bytes after reading");
    ("io.short_write", "journal append writes a torn record, then crashes");
    ("journal.corrupt", "flip one payload byte of a journal record on read");
    ("serve.crash", "kill the serving loop at the N-th durability checkpoint");
    ("sim.nan", "poison a similarity read with NaN");
    ("sim.huge", "poison a similarity read with 1e300");
    ("mcf.alloc", "fail the flow-network build (a faulted chain stage)");
    ( "timeout.<stage>",
      "not fired; @N arms the stage's budget to expire on poll N" );
  ]

(* -- parsing ---------------------------------------------------------- *)

let valid_point s =
  s <> ""
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let parse_entry s =
  let mk point trigger =
    (* Name the offending token, not the whole entry: in a plan like
       "serve.crash@3,IO.corrupt" the complaint must single out
       "IO.corrupt" even though the trigger suffix already parsed. *)
    if valid_point point then Ok { point; trigger; hits = 0 }
    else Error (Printf.sprintf "bad fault point %S" point)
  in
  match String.index_opt s '@' with
  | None -> mk s (From 1)
  | Some i -> (
      let point = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      let n_str, from =
        let l = String.length arg in
        if l > 0 && arg.[l - 1] = '+' then (String.sub arg 0 (l - 1), true)
        else (arg, false)
      in
      match int_of_string_opt n_str with
      | Some n when n >= 1 -> mk point (if from then From n else At n)
      | Some _ | None ->
          Error
            (Printf.sprintf
               "bad fault count %S in %S (want point@N or point@N+, N >= 1)"
               arg s))

let parse spec =
  let entries =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (( <> ) "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest -> (
        match parse_entry e with
        | Ok entry -> go (entry :: acc) rest
        | Error _ as err -> err)
  in
  go [] entries

(* -- active plan ------------------------------------------------------ *)

let current : plan ref = ref []
let error : string option ref = ref None
let is_active = ref false
let fired = ref 0

let install plan =
  List.iter (fun e -> e.hits <- 0) plan;
  current := plan;
  error := None;
  fired := 0;
  is_active := plan <> []

let clear () =
  current := [];
  error := None;
  fired := 0;
  is_active := false

let () =
  match Sys.getenv_opt "GEACC_FAULTS" with
  | None | Some "" -> ()
  | Some spec -> (
      match parse spec with
      | Ok plan -> install plan
      | Error e -> error := Some e)

let plan_error () = !error
let active () = !is_active

let find point = List.find_opt (fun e -> e.point = point) !current

let fire point =
  !is_active
  && (match find point with
     | None -> false
     | Some e ->
         e.hits <- e.hits + 1;
         let hit =
           match e.trigger with At n -> e.hits = n | From n -> e.hits >= n
         in
         if hit then incr fired;
         hit)

let inject point = if fire point then raise (Injected { point })

let param point =
  match find point with
  | None -> None
  | Some { trigger = At n | From n; _ } -> Some n

let hits point = match find point with None -> 0 | Some e -> e.hits

let fires () = !fired

let with_plan spec f =
  match parse spec with
  | Error e -> invalid_arg (Printf.sprintf "Fault.with_plan: %s" e)
  | Ok plan ->
      let saved = !current and saved_error = !error and saved_fired = !fired in
      let saved_hits = List.map (fun e -> (e, e.hits)) saved in
      install plan;
      Fun.protect
        ~finally:(fun () ->
          current := saved;
          error := saved_error;
          fired := saved_fired;
          is_active := saved <> [];
          List.iter (fun (e, h) -> e.hits <- h) saved_hits)
        f
