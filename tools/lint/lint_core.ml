(* Shared plumbing for the two analyzer passes: geacc_lint (parsetree pass)
   and geacc_analyze (typedtree/.cmt pass). One diagnostic shape, one
   suppression-tag parser, one pair of output formats, one directory walk —
   so the two tools cannot drift apart on spans, tags or report syntax. *)

type diagnostic = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

(* ---------- path predicates ---------- *)

let has_segment path seg =
  List.exists (String.equal seg) (String.split_on_char '/' path)

let contains_marker path marker =
  (* Substring search is enough: markers are unambiguous path infixes. *)
  let lp = String.length path and lm = String.length marker in
  let rec at i =
    i + lm <= lp && (String.equal (String.sub path i lm) marker || at (i + 1))
  in
  at 0

(* ---------- file discovery ---------- *)

let rec walk ~skip_dir dir acc =
  let entries = Sys.readdir dir in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then
        if skip_dir name then acc else walk ~skip_dir path acc
      else path :: acc)
    acc entries

let read_lines path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  (content, Array.of_list (String.split_on_char '\n' content))

(* ---------- suppression tags ---------- *)

(* Both passes share one tag grammar: a comment containing "<tag>: ok" on
   the offending line or the line directly above suppresses the diagnostic.
   geacc_lint recognises the tag "lint", geacc_analyze's hot-loop rules the
   tag "alloc"; a caller passes every tag it honours. *)

let line_has_tag ~tags lines l =
  l >= 1
  && l <= Array.length lines
  && List.exists
       (fun tag -> contains_marker lines.(l - 1) (tag ^ ": ok"))
       tags

let suppressed ~tags lines l =
  line_has_tag ~tags lines l || line_has_tag ~tags lines (l - 1)

(* ---------- reasoned suppression tags and licences ---------- *)

(* geacc_analyze's effects tags must justify themselves: "<tag>: ok —
   <reason>". A bare "<tag>: ok" is itself a diagnostic
   (suppress-no-reason), so an exemption can never silently outlive its
   justification. Its bounds rules reuse the same grammar with the marker
   "bounds: proved" — a licence rather than a suppression, since the
   analyzer re-verifies the claim — so both go through the generic marker
   machinery below. *)

type tag_status = No_tag | Tag_with_reason | Tag_without_reason

let find_sub s sub =
  let ls = String.length s and lb = String.length sub in
  let rec at i =
    if i + lb > ls then None
    else if String.equal (String.sub s i lb) sub then Some i
    else at (i + 1)
  in
  at 0

let line_marker_status ~marker lines l =
  if l < 1 || l > Array.length lines then No_tag
  else
    let line = lines.(l - 1) in
    match find_sub line marker with
    | None -> No_tag
    | Some i ->
        let start = i + String.length marker in
        let rest = String.sub line start (String.length line - start) in
        (* The reason ends where the comment does; dashes and punctuation
           alone are not a reason. *)
        let rest =
          match find_sub rest "*)" with
          | Some j -> String.sub rest 0 j
          | None -> rest
        in
        let is_word c =
          (c >= 'a' && c <= 'z')
          || (c >= 'A' && c <= 'Z')
          || (c >= '0' && c <= '9')
        in
        if String.exists is_word rest then Tag_with_reason
        else Tag_without_reason

let line_tag_status ~tag lines l = line_marker_status ~marker:(tag ^ ": ok") lines l

(* Same placement grammar as [suppressed]: the offending line or the line
   directly above, nearest line wins. Returns the matched line alongside
   the status so licence consumers can track which markers were used
   (geacc_analyze reports the unused ones as orphans). *)
let reasoned_marker_status ~marker lines l =
  match line_marker_status ~marker lines l with
  | No_tag -> (line_marker_status ~marker lines (l - 1), l - 1)
  | s -> (s, l)

let reasoned_tag_status ~tag lines l =
  fst (reasoned_marker_status ~marker:(tag ^ ": ok") lines l)

(* ---------- output ---------- *)

type format = Text | Json

let sort_diagnostics diags =
  List.sort
    (fun a b ->
      let c = String.compare a.file b.file in
      if c <> 0 then c
      else
        let c = Int.compare a.line b.line in
        if c <> 0 then c
        else
          let c = Int.compare a.col b.col in
          if c <> 0 then c else String.compare a.rule b.rule)
    diags

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Emits the (sorted) report and returns the exit status the tool should
   use: 0 when clean, 1 when any diagnostic was reported. In [Text] a clean
   run prints "<tool>: clean" so logs state the pass ran; in [Json] the
   report is always a (possibly empty) array, machine-consumable either
   way. *)
let emit ~format ~tool diags =
  let diags = sort_diagnostics diags in
  (match format with
  | Text ->
      List.iter
        (fun d ->
          Printf.printf "%s:%d:%d: [%s] %s\n" d.file d.line d.col d.rule
            d.message)
        diags;
      if diags = [] then Printf.printf "%s: clean\n" tool
  | Json ->
      let item d =
        Printf.sprintf
          "  {\"file\": \"%s\", \"line\": %d, \"col\": %d, \"rule\": \
           \"%s\", \"message\": \"%s\"}"
          (json_escape d.file) d.line d.col (json_escape d.rule)
          (json_escape d.message)
      in
      print_string
        (match diags with
        | [] -> "[]\n"
        | _ -> "[\n" ^ String.concat ",\n" (List.map item diags) ^ "\n]\n"));
  if diags = [] then 0 else 1

(* ---------- command line ---------- *)

(* Both passes accept:  TOOL [--format text|json] [--list-rules] DIR...
   [--list-rules] prints the tool's rule ids one per line and exits 0, so
   CI checks the problem-matcher config against the binaries instead of
   letting it drift silently. *)
let parse_argv ~tool ?(rules = []) argv =
  let usage () =
    Printf.eprintf "usage: %s [--format text|json] [--list-rules] DIR...\n"
      tool;
    exit 2
  in
  let rec go fmt roots = function
    | [] -> (fmt, List.rev roots)
    | "--list-rules" :: _ ->
        List.iter print_endline rules;
        exit 0
    | "--format" :: v :: rest -> (
        match v with
        | "text" -> go Text roots rest
        | "json" -> go Json roots rest
        | _ -> usage ())
    | "--format" :: [] -> usage ()
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | dir :: rest -> go fmt (dir :: roots) rest
  in
  let fmt, roots =
    match Array.to_list argv with _ :: rest -> go Text [] rest | [] -> usage ()
  in
  if roots = [] then usage ();
  List.iter
    (fun r ->
      if not (Sys.file_exists r && Sys.is_directory r) then begin
        Printf.eprintf "%s: not a directory: %s\n" tool r;
        exit 2
      end)
    roots;
  (fmt, roots)
