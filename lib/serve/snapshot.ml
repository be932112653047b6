open Geacc_core
module Fault = Geacc_robust.Fault
module Error = Geacc_robust.Error
module Instance_io = Geacc_io.Instance_io

let header = "geacc-snapshot 1\n"
let segment_header = "geacc-segment 1\n"

(* Renaming over [path] is only durable once the parent directory's entry
   is — and the caller truncates the journal right after [save] returns, so
   losing the rename to a power cut while the truncate survives would drop
   every batch since the previous snapshot. The same holds for a segment
   file's creation. Directories cannot be opened for writing; a read-only
   fd is what fsync(2) wants here. Platforms that refuse to open or fsync a
   directory keep the process-crash guarantee. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* -- Saving ----------------------------------------------------------- *)

let fresh_segment ~dir ~name =
  {
    Serve_state.dir;
    name;
    bytes = 0;
    crc = 0;
    n_users = 0;
    n_events = 0;
  }

(* The entity lines [state] gained since [seg] was written. *)
let render_entities state (seg : Serve_state.segment) =
  let buf = Buffer.create 4096 in
  if seg.bytes = 0 then Buffer.add_string buf segment_header;
  let side tag first n get =
    for i = first to n - 1 do
      let e = get state i in
      Buffer.add_string buf tag;
      Instance_io.add_entity buf ~capacity:e.Entity.capacity e.Entity.attrs
    done
  in
  side "u " seg.n_users (Serve_state.n_users state) Serve_state.user;
  side "v " seg.n_events (Serve_state.n_events state) Serve_state.event;
  Buffer.contents buf

(* Drops whatever a crashed save left past the referenced prefix, appends
   the new entities and makes them durable; returns the grown segment. A
   file shorter than its referenced prefix (cut by something else since)
   is written again from its first byte, so that the prefix the new
   mutable part references is whole. *)
let append_segment state (seg : Serve_state.segment) =
  let file = Filename.concat seg.dir seg.name in
  let created = not (Sys.file_exists file) in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o644 file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let fd = Unix.descr_of_out_channel oc in
      let size = out_channel_length oc in
      let seg =
        if size < seg.bytes then
          fresh_segment ~dir:seg.dir ~name:seg.name
        else seg
      in
      if size > seg.bytes then Unix.ftruncate fd seg.bytes;
      let chunk = render_entities state seg in
      if chunk <> "" then begin
        seek_out oc seg.bytes;
        output_string oc chunk;
        flush oc;
        Unix.fsync fd;
        if created then fsync_dir seg.dir
      end;
      {
        seg with
        bytes = seg.bytes + String.length chunk;
        crc = Journal.crc32 ~prefix:seg.crc chunk;
        n_users = Serve_state.n_users state;
        n_events = Serve_state.n_events state;
      })

(* The mutable part's payload: integers only, bar the sim header and the
   segment's name. *)
let render_mutable state (seg : Serve_state.segment) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "geacc-serve-state 3\n";
  Printf.bprintf buf "seq %d\ncursor %d\ndirty %d\n%s\n" (Serve_state.seq state)
    (Serve_state.cursor state) (Serve_state.dirty_bound state)
    (Instance_io.sim_header (Serve_state.sim state));
  Printf.bprintf buf "segment %s %d %d\n" seg.name seg.bytes
    seg.crc;
  let ints keyword count iter =
    Buffer.add_string buf keyword;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (string_of_int count);
    iter (fun x ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int x));
    Buffer.add_char buf '\n'
  in
  let capacities keyword n get =
    ints keyword n (fun add ->
        for i = 0 to n - 1 do
          add (get state i).Entity.capacity
        done)
  in
  let flagged keyword n gone =
    let ids = List.filter (gone state) (List.init n Fun.id) in
    ints keyword (List.length ids) (fun add -> List.iter add ids)
  in
  let n_users = Serve_state.n_users state and n_events = Serve_state.n_events state in
  capacities "users" n_users Serve_state.user;
  capacities "events" n_events Serve_state.event;
  flagged "departed" n_users Serve_state.departed;
  flagged "closed" n_events Serve_state.closed;
  let pair_list keyword pairs =
    ints keyword (List.length pairs) (fun add ->
        List.iter
          (fun (a, b) ->
            add a;
            add b)
          pairs)
  in
  pair_list "conflicts" (Serve_state.conflicts state);
  pair_list "pairs" (Serve_state.pairs state);
  Buffer.contents buf

let save ~path state =
  let dir = Filename.dirname path in
  let seg =
    match Serve_state.segment state with
    | Some s when s.Serve_state.dir = dir -> s
    | _ -> fresh_segment ~dir ~name:(Filename.basename path ^ ".seg")
  in
  let seg = append_segment state seg in
  Serve_state.set_segment state seg;
  Fault.inject "serve.crash";
  let payload = render_mutable state seg in
  let text =
    Printf.sprintf "%scrc %08x\n%s" header (Journal.crc32 payload) payload
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc text;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Fault.inject "serve.crash";
  Sys.rename tmp path;
  fsync_dir dir;
  Fault.inject "serve.crash"

let exists ~path = Sys.file_exists path

(* -- Loading ---------------------------------------------------------- *)

exception Fail of { line : int; message : string }

let fail ~line fmt =
  Printf.ksprintf (fun message -> raise (Fail { line; message })) fmt

let tokens l = String.split_on_char ' ' l |> List.filter (( <> ) "")

let parse_int ~line s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail ~line "expected an integer, got %S" s

(* A payload read line by line; [lineno] is the file's line number of the
   line last read. *)
type reader = { text : string; mutable pos : int; mutable lineno : int }

let read_line r =
  r.lineno <- r.lineno + 1;
  match String.index_from_opt r.text r.pos '\n' with
  | None -> fail ~line:r.lineno "unexpected end of input"
  | Some nl ->
      let l = String.sub r.text r.pos (nl - r.pos) in
      r.pos <- nl + 1;
      l

let non_negative r keyword =
  let l = read_line r in
  match tokens l with
  | [ k; n ] when k = keyword ->
      let n = parse_int ~line:r.lineno n in
      if n < 0 then fail ~line:r.lineno "negative %s %d" keyword n;
      n
  | _ -> fail ~line:r.lineno "expected `%s <n>`, got %S" keyword l

let sim_line r =
  match tokens (read_line r) with
  | "sim" :: args -> (
      try Instance_io.parse_sim ~line:r.lineno args
      with Instance_io.Parse_error { line = _; message } ->
        fail ~line:r.lineno "%s" message)
  | _ -> fail ~line:r.lineno "expected `sim ...`"

(* [keyword k x_1 ... x_{width * k}], every [x] non-negative. *)
let int_line r keyword ~width =
  let l = read_line r in
  match tokens l with
  | k :: n :: xs when k = keyword ->
      let n = parse_int ~line:r.lineno n in
      let xs = Array.of_list (List.map (parse_int ~line:r.lineno) xs) in
      if n < 0 || Array.length xs <> width * n then
        fail ~line:r.lineno "%s declares %d entries but lists %d integers" keyword n
          (Array.length xs);
      Array.iter
        (fun x -> if x < 0 then fail ~line:r.lineno "negative %s value %d" keyword x)
        xs;
      xs
  | _ -> fail ~line:r.lineno "expected `%s <count> <int...>`, got %S" keyword l

let below ~line what bound x =
  if x >= bound then fail ~line "%s id %d out of range [0, %d)" what x bound

let id_line r keyword ~bound =
  let xs = int_line r keyword ~width:1 in
  Array.iter (below ~line:r.lineno keyword bound) xs;
  Array.to_list xs

let pair_line r keyword ~n_events ~n_users =
  let xs = int_line r keyword ~width:2 in
  List.init
    (Array.length xs / 2)
    (fun i ->
      let v = xs.(2 * i) and u = xs.((2 * i) + 1) in
      below ~line:r.lineno "pair event" n_events v;
      below ~line:r.lineno "pair user" n_users u;
      (v, u))

let conflict_line r ~n_events =
  let xs = int_line r "conflicts" ~width:2 in
  let seen = Hashtbl.create 16 in
  List.init
    (Array.length xs / 2)
    (fun i ->
      let v = xs.(2 * i) and w = xs.((2 * i) + 1) in
      below ~line:r.lineno "conflict event" n_events v;
      below ~line:r.lineno "conflict event" n_events w;
      if v = w then fail ~line:r.lineno "event %d conflicts with itself" v;
      let key = (min v w, max v w) in
      if Hashtbl.mem seen key then
        fail ~line:r.lineno "duplicate conflict pair (%d, %d)" (fst key) (snd key);
      Hashtbl.replace seen key ();
      key)

let check_end r =
  if r.pos <> String.length r.text then fail ~line:(r.lineno + 1) "trailing content"

(* The lines both versions open with. [within ~n_users] checks the cursor
   and the dirty bound once the user count is known. *)
let common_header r =
  let seq = non_negative r "seq" in
  let cursor = non_negative r "cursor" in
  let cursor_line = r.lineno in
  let dirty = non_negative r "dirty" in
  let dirty_line = r.lineno in
  let sim = sim_line r in
  let within ~n_users =
    if cursor > n_users then
      fail ~line:cursor_line "cursor %d beyond the %d users" cursor n_users;
    if dirty > n_users then
      fail ~line:dirty_line "dirty bound %d beyond the %d users" dirty n_users
  in
  (seq, cursor, dirty, sim, within)

(* The referenced prefix of a segment, checked against its recorded length
   and CRC. A tail past it is a crashed save's and is not read. *)
let read_segment ~line ~file ~name ~bytes ~crc =
  match open_in_bin file with
  | exception Sys_error _ -> fail ~line "entity segment %s is missing" name
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let size = in_channel_length ic in
          if size < bytes then
            fail ~line
              "entity segment %s holds %d bytes, the snapshot references %d" name
              size bytes;
          let text = really_input_string ic bytes in
          let computed = Journal.crc32 text in
          if computed <> crc then
            fail ~line
              "entity segment %s crc mismatch over its first %d bytes (stored \
               %08x, computed %08x)"
              name bytes crc computed;
          text)

(* The segment's entity lines: [user_caps] users and [event_caps] events,
   each given the capacity the mutable part records for it. Errors carry
   the segment's own line numbers. *)
let parse_segment ~name text ~user_caps ~event_caps =
  let r = { text; pos = 0; lineno = 0 } in
  let seg_fail fmt =
    Printf.ksprintf
      (fun m ->
        raise (Fail { line = r.lineno; message = "entity segment " ^ name ^ ": " ^ m }))
      fmt
  in
  if not (String.starts_with ~prefix:segment_header text) then begin
    r.lineno <- 1;
    seg_fail "expected `geacc-segment 1` header"
  end;
  r.pos <- String.length segment_header;
  r.lineno <- 1;
  let users = ref [] and events = ref [] and nu = ref 0 and ne = ref 0 in
  let dim = ref (-1) in
  let entity caps n acc toks =
    if !n >= Array.length caps then
      seg_fail "more entities than the %d capacities the snapshot lists"
        (Array.length caps);
    let e =
      try Instance_io.parse_entity ~line:r.lineno ~id:!n toks
      with Instance_io.Parse_error { line = _; message } -> seg_fail "%s" message
    in
    if !dim < 0 then dim := Entity.dim e
    else if Entity.dim e <> !dim then
      seg_fail "attribute dimension %d differs from the first entity's %d"
        (Entity.dim e) !dim;
    acc := { e with Entity.capacity = caps.(!n) } :: !acc;
    incr n
  in
  while r.pos < String.length text do
    let l = read_line r in
    match tokens l with
    | "u" :: toks -> entity user_caps nu users toks
    | "v" :: toks -> entity event_caps ne events toks
    | _ -> seg_fail "expected `u <entity>` or `v <entity>`, got %S" l
  done;
  let side what caps n acc =
    if n <> Array.length caps then
      seg_fail "holds %d %s, the snapshot lists %d" n what (Array.length caps);
    Array.of_list (List.rev acc)
  in
  (side "users" user_caps !nu !users, side "events" event_caps !ne !events)

let load_v3 ~dir r =
  let seq, cursor, dirty, sim, within = common_header r in
  let l = read_line r in
  let seg_line = r.lineno in
  let name, bytes, crc =
    match tokens l with
    | [ "segment"; name; bytes; crc ] ->
        if name = "." || name = ".." || Filename.basename name <> name then
          fail ~line:seg_line "segment name %S is not a file name" name;
        let bytes = parse_int ~line:seg_line bytes
        and crc = parse_int ~line:seg_line crc in
        if bytes < 0 then fail ~line:seg_line "negative segment length %d" bytes;
        (name, bytes, crc)
    | _ -> fail ~line:seg_line "expected `segment <name> <bytes> <crc>`, got %S" l
  in
  let user_caps = int_line r "users" ~width:1 in
  let event_caps = int_line r "events" ~width:1 in
  let n_users = Array.length user_caps and n_events = Array.length event_caps in
  within ~n_users;
  let departed = id_line r "departed" ~bound:n_users in
  let closed = id_line r "closed" ~bound:n_events in
  let conflicts = conflict_line r ~n_events in
  let pairs = pair_line r "pairs" ~n_events ~n_users in
  check_end r;
  let users, events =
    parse_segment ~name
      (read_segment ~line:seg_line ~file:(Filename.concat dir name) ~name ~bytes ~crc)
      ~user_caps ~event_caps
  in
  let state =
    Serve_state.restore ~sim ~seq ~cursor ~dirty ~users ~events ~departed ~closed
      ~conflicts ~pairs
  in
  Serve_state.set_segment state
    { Serve_state.dir; name; bytes; crc; n_users; n_events };
  state

(* A [geacc-serve-state 2] payload, the single-file format before the
   entity segment: the same header lines, then length-prefixed embedded
   [Instance_io] instance and matching texts and the tombstone id lists.
   User lists then ranked equal similarities at distinct distances by
   distance, so its arrangement may not be canonical under today's order:
   the dirty bound is set to 0, and the first repair re-walks every user.
   Its first save writes a fresh segment and a v3 mutable part. *)
let load_v2 r =
  let seq, cursor, _, sim, within = common_header r in
  let blob keyword =
    let len = non_negative r keyword in
    if r.pos + len > String.length r.text then
      fail ~line:r.lineno "embedded section of %d bytes cut short" len;
    let blob = String.sub r.text r.pos len in
    let first = r.lineno in
    r.pos <- r.pos + len;
    String.iter (fun c -> if c = '\n' then r.lineno <- r.lineno + 1) blob;
    (blob, first)
  in
  let embedded what parse (blob, first) =
    try parse blob
    with Instance_io.Parse_error { line; message } ->
      fail ~line:(first + line) "embedded %s: %s" what message
  in
  let users, events, conflicts =
    match blob "instance" with
    | "", _ -> ([||], [||], [])
    | b ->
        let inst = embedded "instance" Instance_io.load_instance b in
        let cf = ref [] in
        Conflict.iter_pairs (Instance.conflicts inst) (fun v w -> cf := (v, w) :: !cf);
        (Instance.users inst, Instance.events inst, List.rev !cf)
  in
  let pairs = embedded "matching" Instance_io.load_pairs (blob "pairs") in
  let n_users = Array.length users and n_events = Array.length events in
  within ~n_users;
  List.iter
    (fun (v, u) ->
      below ~line:r.lineno "pair event" n_events v;
      below ~line:r.lineno "pair user" n_users u)
    pairs;
  let departed = id_line r "departed" ~bound:n_users in
  let closed = id_line r "closed" ~bound:n_events in
  check_end r;
  Serve_state.restore ~sim ~seq ~cursor ~dirty:0 ~users ~events ~departed ~closed
    ~conflicts ~pairs

let load ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error message -> Error (Error.Io_error { path; message })
  | text -> (
      match
        let hlen = String.length header in
        if String.length text < hlen || String.sub text 0 hlen <> header then
          fail ~line:1 "expected `geacc-snapshot 1` header";
        let r = { text; pos = hlen; lineno = 1 } in
        let stored =
          match String.split_on_char ' ' (read_line r) with
          | [ "crc"; hex ] -> (
              match int_of_string_opt ("0x" ^ hex) with
              | Some c -> c
              | None -> fail ~line:2 "bad crc value %s" hex)
          | _ -> fail ~line:2 "expected `crc <hex>` line"
        in
        let computed =
          Journal.crc32 (String.sub text r.pos (String.length text - r.pos))
        in
        if computed <> stored then
          fail ~line:2 "snapshot crc mismatch (stored %08x, computed %08x)" stored
            computed;
        let l = read_line r in
        match tokens l with
        | [ "geacc-serve-state"; "3" ] -> load_v3 ~dir:(Filename.dirname path) r
        | [ "geacc-serve-state"; "2" ] -> load_v2 r
        | _ ->
            fail ~line:r.lineno "expected `geacc-serve-state 3` (or 2) header, got %S" l
      with
      | state -> Ok state
      | exception Fail { line; message } -> Error (Error.Parse_error { line; message }))
