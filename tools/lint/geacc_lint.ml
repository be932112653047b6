(* geacc_lint — the project analyzer's source pass: compiler-libs parse
   trees. The typedtree pass (geacc_analyze) works on .cmt files; see that
   file and DESIGN.md §7. Shared span/suppression/report plumbing lives in
   Lint_core.

   Usage: geacc_lint [--format text|json] DIR...

   Walks every directory given on the command line, parses each [.ml]/[.mli]
   with the compiler's own parser and each [dune] file with a minimal sexp
   reader, and reports typed diagnostics with file:line:col spans:

   - [obj-magic]            any use of [Obj.magic], anywhere.
   - [poly-compare]         polymorphic structural comparison in the hot-path
                            code (lib/flow, lib/pqueue, lib/index,
                            lib/core/greedy.ml): the
                            bare [compare]/[Stdlib.compare], or [=]/[<>]
                            applied to a syntactically non-scalar operand
                            (constructor application, tuple, record, list,
                            string/float literal, [infinity]/[nan]).
   - [missing-mli]          a [lib/**/*.ml] without a sibling [.mli].
   - [partial-raise]        [failwith]/[assert false] in library code.
   - [dune-unused-dep]      a [(libraries ...)] entry whose module is never
                            referenced by the stanza's own modules.
   - [dune-undeclared-dep]  a referenced module that belongs to a known
                            library the stanza does not declare.
   - [parse-error]          a file the compiler's parser rejects.

   A diagnostic is suppressed when the offending line, or the line above it,
   carries the tag [lint: ok] inside a comment. Directories named [_build],
   [.git] or [fixtures] are skipped, so cram tests can lay out deliberately
   broken trees. Exit status: 0 clean, 1 diagnostics reported, 2 usage. *)

let hot_path_markers =
  [ "lib/flow/"; "lib/pqueue/"; "lib/index/"; "lib/core/greedy." ]
let suppression_tags = [ "lint" ]

type rule =
  | Obj_magic
  | Poly_compare
  | Missing_mli
  | Partial_raise
  | Dune_unused_dep
  | Dune_undeclared_dep
  | Parse_error

let rule_id = function
  | Obj_magic -> "obj-magic"
  | Poly_compare -> "poly-compare"
  | Missing_mli -> "missing-mli"
  | Partial_raise -> "partial-raise"
  | Dune_unused_dep -> "dune-unused-dep"
  | Dune_undeclared_dep -> "dune-undeclared-dep"
  | Parse_error -> "parse-error"

module StringSet = Set.Make (String)

(* ---------- file discovery ---------- *)

let skip_dir name =
  List.exists (String.equal name) [ "_build"; "fixtures" ]
  || (String.length name > 0 && name.[0] = '.')

let is_hot_path path =
  List.exists (Lint_core.contains_marker path) hot_path_markers

let is_lib_code path = Lint_core.has_segment path "lib"

(* ---------- AST scan ---------- *)

let rec longident_root = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, _) -> longident_root l
  | Longident.Lapply (l, _) -> longident_root l

let is_module_root s =
  String.length s > 0 && Char.uppercase_ascii s.[0] = s.[0]
  && Char.lowercase_ascii s.[0] <> s.[0]

(* Operands whose comparison with [=] is structural on a non-scalar (or a
   float, where [Float.equal]/[Float.compare] is wanted anyway). *)
let composite_operand (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_construct (_, Some _) -> true
  | Pexp_tuple _ -> true
  | Pexp_record _ -> true
  | Pexp_array _ -> true
  | Pexp_constant (Pconst_string _) -> true
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt = Lident ("infinity" | "neg_infinity" | "nan"); _ } ->
      true
  | _ -> false

type scan_ctx = {
  sc_file : string;
  sc_lines : string array;
  sc_hot : bool;
  sc_lib : bool;
  mutable sc_refs : StringSet.t;
  mutable sc_diags : Lint_core.diagnostic list;
}

let report ctx (loc : Location.t) rule message =
  let p = loc.loc_start in
  let line = p.pos_lnum and col = p.pos_cnum - p.pos_bol in
  if not (Lint_core.suppressed ~tags:suppression_tags ctx.sc_lines line) then
    ctx.sc_diags <-
      { Lint_core.file = ctx.sc_file; line; col; rule = rule_id rule; message }
      :: ctx.sc_diags

let record_ref ctx lid =
  let root = longident_root lid in
  if is_module_root root then ctx.sc_refs <- StringSet.add root ctx.sc_refs

let scan_iterator ctx =
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
        record_ref ctx txt;
        match txt with
        | Ldot (Lident "Obj", "magic") ->
            report ctx loc Obj_magic "Obj.magic defeats the type system"
        | Lident "compare" | Ldot (Lident "Stdlib", "compare") ->
            if ctx.sc_hot then
              report ctx loc Poly_compare
                "polymorphic compare in a hot path; use a monomorphic \
                 comparison (Int.compare, Float.compare, ...)"
        | Lident "failwith" | Ldot (Lident "Stdlib", "failwith") ->
            if ctx.sc_lib then
              report ctx loc Partial_raise
                "failwith in library code; return a result or tag the line \
                 with (* lint: ok *)"
        | _ -> ())
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident (("=" | "<>") as op); loc };
            _ },
          args )
      when ctx.sc_hot && List.exists (fun (_, a) -> composite_operand a) args
      ->
        report ctx loc Poly_compare
          (Printf.sprintf
             "polymorphic (%s) on a non-scalar operand in a hot path; use a \
              monomorphic equality"
             op)
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
      ->
        if ctx.sc_lib then
          report ctx e.pexp_loc Partial_raise
            "assert false in library code; make the case impossible or tag \
             the line with (* lint: ok *)"
    | Pexp_construct ({ txt; _ }, _) -> record_ref ctx txt
    | _ -> ());
    default_iterator.expr it e
  in
  let pat it (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_construct ({ txt; _ }, _) -> record_ref ctx txt
    | _ -> ());
    default_iterator.pat it p
  in
  let typ it (t : Parsetree.core_type) =
    (match t.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) -> record_ref ctx txt
    | _ -> ());
    default_iterator.typ it t
  in
  let module_expr it (m : Parsetree.module_expr) =
    (match m.pmod_desc with
    | Pmod_ident { txt; _ } -> record_ref ctx txt
    | _ -> ());
    default_iterator.module_expr it m
  in
  let module_type it (m : Parsetree.module_type) =
    (match m.pmty_desc with
    | Pmty_ident { txt; _ } -> record_ref ctx txt
    | _ -> ());
    default_iterator.module_type it m
  in
  let open_description it (o : Parsetree.open_description) =
    record_ref ctx o.popen_expr.txt;
    default_iterator.open_description it o
  in
  {
    default_iterator with
    expr;
    pat;
    typ;
    module_expr;
    module_type;
    open_description;
  }

let scan_source path =
  let content, lines = Lint_core.read_lines path in
  let ctx =
    {
      sc_file = path;
      sc_lines = lines;
      sc_hot = is_hot_path path;
      sc_lib = is_lib_code path;
      sc_refs = StringSet.empty;
      sc_diags = [];
    }
  in
  let lexbuf = Lexing.from_string content in
  Location.init lexbuf path;
  (try
     let it = scan_iterator ctx in
     if Filename.check_suffix path ".mli" then
       it.signature it (Parse.interface lexbuf)
     else it.structure it (Parse.implementation lexbuf)
   with exn ->
     let line, col =
       match Location.error_of_exn exn with
       | Some (`Ok { Location.main = { loc; _ }; _ }) ->
           (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
       | _ -> (1, 0)
     in
     ctx.sc_diags <-
       { Lint_core.file = path; line; col; rule = rule_id Parse_error;
         message = "the compiler's parser rejects this file" }
       :: ctx.sc_diags);
  (ctx.sc_refs, ctx.sc_diags)

(* ---------- dune files: minimal sexp reader ---------- *)

type sexp = Atom of string * int | SList of sexp list * int

let parse_sexps content =
  let n = String.length content in
  let pos = ref 0 and line = ref 1 in
  let peek () = if !pos < n then Some content.[!pos] else None in
  let advance () =
    if !pos < n then begin
      if content.[!pos] = '\n' then incr line;
      incr pos
    end
  in
  let rec skip_blank () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_blank ()
    | Some ';' ->
        let rec to_eol () =
          match peek () with
          | Some '\n' | None -> ()
          | Some _ ->
              advance ();
              to_eol ()
        in
        to_eol ();
        skip_blank ()
    | _ -> ()
  in
  let read_string () =
    let b = Buffer.create 16 in
    advance () (* opening quote *);
    let rec go () =
      match peek () with
      | None -> ()
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some c ->
              Buffer.add_char b c;
              advance ()
          | None -> ());
          go ()
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let read_atom () =
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | ';') | None -> ()
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec read_one () =
    skip_blank ();
    match peek () with
    | None -> None
    | Some '(' ->
        let l = !line in
        advance ();
        let items = ref [] in
        let rec items_loop () =
          skip_blank ();
          match peek () with
          | Some ')' -> advance ()
          | None -> ()
          | Some _ -> (
              match read_one () with
              | Some s ->
                  items := s :: !items;
                  items_loop ()
              | None -> ())
        in
        items_loop ();
        Some (SList (List.rev !items, l))
    | Some ')' ->
        advance ();
        read_one ()
    | Some '"' ->
        let l = !line in
        Some (Atom (read_string (), l))
    | Some _ ->
        let l = !line in
        Some (Atom (read_atom (), l))
  in
  let rec all acc =
    match read_one () with None -> List.rev acc | Some s -> all (s :: acc)
  in
  all []

type stanza = {
  st_dir : string;
  st_file : string;
  st_line : int;
  st_kind : string;
  st_name : string option;       (* (name ...) for libraries *)
  st_libraries : (string * int) list;
  st_modules : string list option;  (* None = all modules in the directory *)
}

let field_atoms = function
  | SList (Atom (_, _) :: rest, _) ->
      List.filter_map
        (function
          | Atom (a, l) -> Some (a, l)
          | SList (Atom ("re_export", _) :: Atom (a, l) :: _, _) -> Some (a, l)
          | SList _ -> None)
        rest
  | _ -> []

let find_field fields key =
  List.find_opt
    (function SList (Atom (k, _) :: _, _) -> String.equal k key | _ -> false)
    fields

let stanzas_of_dune path =
  let content, _ = Lint_core.read_lines path in
  let dir = Filename.dirname path in
  List.filter_map
    (function
      | SList (Atom (kind, _) :: fields, line)
        when List.exists (String.equal kind)
               [ "library"; "executable"; "executables"; "test"; "tests" ] ->
          let name =
            match find_field fields "name" with
            | Some (SList (_ :: Atom (n, _) :: _, _)) -> Some n
            | _ -> None
          in
          let libraries =
            match find_field fields "libraries" with
            | Some f ->
                List.filter
                  (fun (a, _) -> String.length a > 0 && a.[0] <> ':')
                  (field_atoms f)
            | None -> []
          in
          let modules =
            match find_field fields "modules" with
            | Some f ->
                let atoms = List.map fst (field_atoms f) in
                if List.exists (fun a -> String.length a > 0 && a.[0] = ':') atoms
                then None
                else Some atoms
            | None -> None
          in
          Some
            {
              st_dir = dir;
              st_file = path;
              st_line = line;
              st_kind = kind;
              st_name = name;
              st_libraries = libraries;
              st_modules = modules;
            }
      | _ -> None)
    (parse_sexps content)

(* ---------- dune dependency cross-check ---------- *)

(* External libraries this project may pull in, keyed by the top module they
   expose. Internal geacc libraries are discovered from the scanned dune
   stanzas, so fixture trees with fresh library names work too. *)
let external_lib_modules =
  [
    ("fmt", "Fmt");
    ("fmt.tty", "Fmt_tty");
    ("fmt.cli", "Fmt_cli");
    ("logs", "Logs");
    ("logs.fmt", "Logs_fmt");
    ("logs.cli", "Logs_cli");
    ("cmdliner", "Cmdliner");
    ("alcotest", "Alcotest");
    ("qcheck-core", "QCheck");
    ("qcheck-alcotest", "QCheck_alcotest");
    ("bechamel", "Bechamel");
    ("unix", "Unix");
  ]

(* Libraries that are legitimate dependencies without any module reference
   (runtime/linking requirements). *)
let unused_allowlist = [ "threads.posix" ]

let lib_module_table stanzas =
  let discovered =
    List.filter_map
      (fun s ->
        match (s.st_kind, s.st_name) with
        | "library", Some n -> Some (n, String.capitalize_ascii n)
        | _ -> None)
      stanzas
  in
  discovered @ external_lib_modules

let check_stanza table files refs_of_file stanza =
  let dir_files =
    List.filter
      (fun f ->
        String.equal (Filename.dirname f) stanza.st_dir
        && (Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"))
      files
  in
  let selected =
    match stanza.st_modules with
    | None -> dir_files
    | Some mods ->
        let wanted =
          List.map (fun m -> String.lowercase_ascii m) mods
        in
        List.filter
          (fun f ->
            let base =
              String.lowercase_ascii (Filename.remove_extension (Filename.basename f))
            in
            List.exists (String.equal base) wanted)
          dir_files
  in
  let refs =
    List.fold_left
      (fun acc f -> StringSet.union acc (refs_of_file f))
      StringSet.empty selected
  in
  let own_module =
    match stanza.st_name with
    | Some n -> Some (String.capitalize_ascii n)
    | None -> None
  in
  let diag line rule message =
    { Lint_core.file = stanza.st_file; line; col = 0; rule = rule_id rule;
      message }
  in
  let unused =
    List.filter_map
      (fun (lib, line) ->
        if List.exists (String.equal lib) unused_allowlist then None
        else
          match List.assoc_opt lib table with
          | Some m when not (StringSet.mem m refs) ->
              Some
                (diag line Dune_unused_dep
                   (Printf.sprintf
                      "library %s is declared but module %s is never \
                       referenced by this stanza"
                      lib m))
          | _ -> None)
      stanza.st_libraries
  in
  let declared = List.map fst stanza.st_libraries in
  let undeclared =
    StringSet.fold
      (fun m acc ->
        if Some m = own_module then acc
        else
          match
            List.find_opt (fun (_, m') -> String.equal m m') table
          with
          | Some (lib, _) when not (List.exists (String.equal lib) declared)
            ->
              diag stanza.st_line Dune_undeclared_dep
                (Printf.sprintf
                   "module %s is referenced but library %s is not declared in \
                    (libraries ...)"
                   m lib)
              :: acc
          | _ -> acc)
      refs []
  in
  unused @ undeclared

(* ---------- missing .mli ---------- *)

let check_missing_mli files =
  List.filter_map
    (fun f ->
      if
        Filename.check_suffix f ".ml"
        && is_lib_code f
        && not (List.exists (String.equal (f ^ "i")) files)
      then
        Some
          {
            Lint_core.file = f;
            line = 1;
            col = 0;
            rule = rule_id Missing_mli;
            message =
              "library module without an interface; add a matching .mli";
          }
      else None)
    files

(* ---------- driver ---------- *)

let () =
  let rules =
    List.map rule_id
      [
        Obj_magic; Poly_compare; Missing_mli; Partial_raise; Dune_unused_dep;
        Dune_undeclared_dep; Parse_error;
      ]
  in
  let format, roots = Lint_core.parse_argv ~tool:"geacc_lint" ~rules Sys.argv in
  let files = List.concat_map (fun r -> Lint_core.walk ~skip_dir r []) roots in
  let sources =
    List.filter
      (fun f -> Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
      files
  in
  let dune_files =
    List.filter (fun f -> String.equal (Filename.basename f) "dune") files
  in
  let refs_tbl = Hashtbl.create 64 in
  let source_diags =
    List.concat_map
      (fun f ->
        let refs, diags = scan_source f in
        Hashtbl.replace refs_tbl f refs;
        diags)
      sources
  in
  let refs_of_file f =
    match Hashtbl.find_opt refs_tbl f with
    | Some r -> r
    | None -> StringSet.empty
  in
  let stanzas = List.concat_map stanzas_of_dune dune_files in
  let table = lib_module_table stanzas in
  let dune_diags =
    List.concat_map (check_stanza table sources refs_of_file) stanzas
  in
  let diags = source_diags @ dune_diags @ check_missing_mli sources in
  exit (Lint_core.emit ~format ~tool:"geacc_lint" diags)
