(* geacc_analyze — the project analyzer's typedtree (.cmt) pass.

   Usage: geacc_analyze [--format text|json] [--list-rules] DIR...

   Walks the given directories for [.cmt] files (dune writes them under
   [.objs/byte] / [.eobjs/byte]; [dune build @analyze] wires this up),
   loads each one once, and runs three rule families the parsetree pass
   (geacc_lint) cannot see, because they need types, resolved paths, or
   the cross-module view:

   - Hot_loop  [hot-loop-alloc], [missing-inline]: allocation and
               specialisation inside the hot loops of lib/flow, lib/pqueue,
               lib/index and lib/core/greedy.ml.
   - Effects   [poll-missing]: budget polls closed over the project call
               graph, checked against the deadline machinery's poll
               obligation.
   - Bounds    [bounds-unlicensed], [bounds-unproved],
               [bounds-out-of-bounds], [bounds-unsafe-def],
               [bounds-orphan-licence]: an interval / affine abstract
               interpretation that re-proves every [bounds: proved] licence
               on an unsafe_* site.

   Plus [suppress-no-reason] (a reasoned tag without its reason) and
   [cmt-error] (a [.cmt] the compiler's reader rejects). Each rule's
   suppression grammar is registered in Analyze_core.rules; all findings go
   to one sorted report. Exit status: 0 clean, 1 diagnostics reported,
   2 usage. *)

let () =
  let rules = List.map fst Analyze_core.rules in
  let format, roots =
    Lint_core.parse_argv ~tool:"geacc_analyze" ~rules Sys.argv
  in
  let skip_dir name = String.equal name ".git" in
  let files = List.concat_map (fun r -> Lint_core.walk ~skip_dir r []) roots in
  let cmts =
    List.sort_uniq String.compare
      (List.filter (fun f -> Filename.check_suffix f ".cmt") files)
  in
  List.iter
    (fun path ->
      match Cmt_format.read_cmt path with
      | exception _ ->
          Analyze_core.add ~file:path ~line:1 ~col:0 "cmt-error"
            "the compiler's cmt reader rejects this file"
      | { cmt_annots = Implementation str; cmt_modname; cmt_sourcefile; _ } ->
          let u = Analyze_core.unit_ctx cmt_modname str in
          Hot_loop.scan u str;
          Effects.scan u str;
          Bounds.scan u ~sourcefile:cmt_sourcefile str
      | _ -> ())
    cmts;
  Hot_loop.resolve ();
  Effects.resolve ();
  Bounds.resolve ();
  let deduped = List.sort_uniq Stdlib.compare !Analyze_core.diags in
  exit (Lint_core.emit ~format ~tool:"geacc_analyze" deduped)
