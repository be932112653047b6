module Fault = Geacc_robust.Fault
module Budget = Geacc_robust.Budget
module Error = Geacc_robust.Error

let header = "geacc-journal 1\n"

(* -- CRC-32 (IEEE), table-driven, plain ints masked below 2^32 -------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 1 to 8 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 ?(prefix = 0) s =
  let table = Lazy.force crc_table in
  let c = ref (prefix lxor 0xffffffff) in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* -- Appending -------------------------------------------------------- *)

type t = {
  mutable oc : out_channel;
  path : string;
  fsync : bool;
  mutable closed : bool;
}

let sync oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let open_for_append ?(fsync = true) ~path () =
  let fresh =
    (not (Sys.file_exists path))
    || (let st = Unix.stat path in
        st.Unix.st_size = 0)
  in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  if fresh then begin
    output_string oc header;
    if fsync then sync oc else flush oc
  end;
  { oc; path; fsync; closed = false }

let frame ~seq payload =
  Printf.sprintf "rec %d %d %08x\n%s\n" seq (String.length payload)
    (crc32 payload) payload

let commit t =
  if t.fsync then sync t.oc else flush t.oc

let append t ~seq ~payload =
  let record = frame ~seq payload in
  if Fault.fire "io.short_write" then begin
    (* A crash mid-write: half the framed bytes reach the disk, then the
       process dies. Recovery must classify this as a torn tail. *)
    output_string t.oc (String.sub record 0 (String.length record / 2));
    sync t.oc;
    raise (Fault.Injected { point = "io.short_write" })
  end;
  output_string t.oc record;
  commit t

let truncate t =
  (* Rewrite rather than ftruncate: an append-mode channel's position would
     be stale, and O_APPEND lands future writes at the new end anyway. *)
  close_out t.oc;
  let oc = open_out_gen [ Open_wronly; Open_trunc; Open_creat ] 0o644 t.path in
  output_string oc header;
  if t.fsync then sync oc else flush oc;
  t.oc <- oc

let close t =
  if not t.closed then begin
    t.closed <- true;
    if t.fsync then sync t.oc else flush t.oc;
    close_out t.oc
  end

(* -- Recovery --------------------------------------------------------- *)

type record = { seq : int; payload : string }

type recovery = { records : record list; torn_bytes : int }

let line_of text pos =
  let n = ref 1 in
  for i = 0 to pos - 1 do
    if text.[i] = '\n' then incr n
  done;
  !n

let corrupt ~text ~pos fmt =
  Printf.ksprintf
    (fun message ->
      Error (Error.Parse_error { line = line_of text pos; message }))
    fmt

let truncate_file ~path ~keep =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd keep;
      Unix.fsync fd)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let parse_rec_line l =
  match String.split_on_char ' ' l with
  | [ "rec"; seq; len; crc ] -> (
      match
        (int_of_string_opt seq, int_of_string_opt len, int_of_string_opt ("0x" ^ crc))
      with
      | Some seq, Some len, Some crc when seq >= 1 && len >= 0 ->
          Some (seq, len, crc)
      | _ -> None)
  | _ -> None

let recover ?(deadline = Budget.unlimited) ~path () =
  match
    if not (Sys.file_exists path) then Ok ""
    else
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with
  | (exception Sys_error message) ->
      Error (Error.Io_error { path; message })
  | Error _ as e -> e
  | Ok text -> (
      let len = String.length text in
      let finish ~pos records =
        if pos < len then truncate_file ~path ~keep:pos;
        Ok { records = List.rev records; torn_bytes = len - pos }
      in
      if text = "" then Ok { records = []; torn_bytes = 0 }
      else if len < String.length header then
        if starts_with ~prefix:text header then
          (* A crash before the header finished: torn, start afresh. *)
          finish ~pos:0 []
        else corrupt ~text ~pos:0 "expected `geacc-journal 1` header"
      else if not (starts_with ~prefix:header text) then
        corrupt ~text ~pos:0 "expected `geacc-journal 1` header"
      else
        let rec records acc ~prev_seq pos =
          if Budget.check deadline then
            Error
              (Error.Timeout { stage = "journal-replay"; elapsed_s = 0. })
          else if pos >= len then
            Ok { records = List.rev acc; torn_bytes = 0 }
          else
            match String.index_from_opt text pos '\n' with
            | None -> finish ~pos acc (* torn record line *)
            | Some nl -> (
                let l = String.sub text pos (nl - pos) in
                match parse_rec_line l with
                | None -> corrupt ~text ~pos "bad journal record line %S" l
                | Some (seq, plen, crc) ->
                    if seq <= prev_seq then
                      corrupt ~text ~pos
                        "journal seq %d is not above the previous seq %d" seq
                        prev_seq
                    else if nl + 1 + plen + 1 > len then
                      finish ~pos acc (* torn payload *)
                    else if text.[nl + 1 + plen] <> '\n' then
                      corrupt ~text ~pos
                        "journal record %d: payload not newline-terminated"
                        seq
                    else
                      let payload = String.sub text (nl + 1) plen in
                      let payload =
                        if plen > 0 && Fault.fire "journal.corrupt" then (
                          let b = Bytes.of_string payload in
                          Bytes.set b 0
                            (Char.chr (Char.code (Bytes.get b 0) lxor 1));
                          Bytes.to_string b)
                        else payload
                      in
                      let computed = crc32 payload in
                      if computed <> crc then
                        corrupt ~text ~pos
                          "journal record %d: crc mismatch (stored %08x, \
                           computed %08x)"
                          seq crc computed
                      else
                        records
                          ({ seq; payload } :: acc)
                          ~prev_seq:seq
                          (nl + 1 + plen + 1))
        in
        records [] ~prev_seq:0 (String.length header))
