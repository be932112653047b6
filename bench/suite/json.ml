(* Just enough JSON for the suite: printing result lines, reading
   BENCHMARK.json and the JSON-lines run files the comparator takes. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Integers print without a fraction; every other number keeps all 17
   significant digits so no measured value is rounded away. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Str s -> escape s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) l)
      ^ "}"

exception Syntax of string

let parse text =
  let len = String.length text and pos = ref 0 in
  let fail what = raise (Syntax (Printf.sprintf "%s at offset %d" what !pos)) in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let n = String.length word in
    if !pos + n <= len && String.sub text !pos n = word then begin
      pos := !pos + n;
      value
    end
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
          incr pos;
          (match peek () with
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'u' when !pos + 4 < len ->
              let code = int_of_string ("0x" ^ String.sub text (!pos + 1) 4) in
              Buffer.add_char b (Char.chr (code land 0xff));
              pos := !pos + 4
          | Some c -> Buffer.add_char b c
          | None -> fail "unterminated escape");
          incr pos;
          go ()
      | Some c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number_lit () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
          incr pos;
          go ()
      | _ -> ()
    in
    go ();
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec members acc =
            let k = string_lit () in
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items (v :: acc)
            | Some ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number_lit ())
    | None -> fail "unexpected end of input"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> len then fail "trailing content";
    v
  with
  | v -> Ok v
  | exception Syntax m -> Error m

let member k = function Obj l -> List.assoc_opt k l | _ -> None

let to_num = function Some (Num f) -> Some f | _ -> None

let to_str = function Some (Str s) -> Some s | _ -> None

let to_bool = function Some (Bool b) -> Some b | _ -> None

let to_list = function Some (Arr l) -> l | _ -> []
