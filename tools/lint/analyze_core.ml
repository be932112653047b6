(* Shared plumbing for geacc_analyze's three rule families (Hot_loop,
   Effects, Bounds): the rule registry, the one report path, the
   source-line cache, unit and path naming, module aliases, and the
   definition table that both the hot-loop lookups and the effect fixpoint
   read. Each [.cmt] is loaded once by geacc_analyze and handed to every
   family as a [unit_ctx] plus its typedtree. *)

(* ---------- rule registry ---------- *)

(* How a finding of each rule can be silenced, on the offending line or the
   line directly above (Lint_core's placement grammar). A tag only ever
   silences the rules registered with it, so a tag aimed at one family can
   never disarm another. *)
type suppression =
  | Tag of string  (* a bare "<tag>: ok" *)
  | Reasoned of string
      (* "<tag>: ok — <reason>"; a bare tag reports suppress-no-reason *)
  | Licence
      (* "bounds: proved — <reason>": not a suppression but a claim the
         bounds family consumes and re-proves at the site itself *)
  | Unsuppressible

let rules =
  [
    ("hot-loop-alloc", Tag "alloc");
    ("missing-inline", Tag "alloc");
    ("poll-missing", Reasoned "poll");
    ("suppress-no-reason", Unsuppressible);
    ("bounds-unlicensed", Licence);
    ("bounds-unproved", Licence);
    ("bounds-out-of-bounds", Unsuppressible);
    ("bounds-unsafe-def", Licence);
    ("bounds-orphan-licence", Unsuppressible);
    ("cmt-error", Unsuppressible);
  ]

(* ---------- diagnostics ---------- *)

let diags : Lint_core.diagnostic list ref = ref []

let add ~file ~line ~col rule message =
  diags := { Lint_core.file; line; col; rule; message } :: !diags

let lines_cache : (string, string array) Hashtbl.t = Hashtbl.create 32

let source_lines file =
  match Hashtbl.find_opt lines_cache file with
  | Some l -> l
  | None ->
      let l = try snd (Lint_core.read_lines file) with Sys_error _ -> [||] in
      Hashtbl.replace lines_cache file l;
      l

let report (loc : Location.t) rule message =
  if not loc.loc_ghost then begin
    let p = loc.loc_start in
    let file = p.pos_fname and line = p.pos_lnum in
    let col = p.pos_cnum - p.pos_bol in
    let add rule message = add ~file ~line ~col rule message in
    match List.assoc rule rules with
    | Tag tag ->
        if not (Lint_core.suppressed ~tags:[ tag ] (source_lines file) line)
        then add rule message
    | Reasoned tag -> (
        match Lint_core.reasoned_tag_status ~tag (source_lines file) line with
        | Lint_core.Tag_with_reason -> ()
        | Lint_core.Tag_without_reason ->
            add "suppress-no-reason"
              (Printf.sprintf
                 "suppression tag \"%s: ok\" carries no reason; write (* %s: \
                  ok — <why this is sound> *)"
                 tag tag)
        | Lint_core.No_tag -> add rule message)
    | Licence | Unsuppressible -> add rule message
  end

let under markers path = List.exists (Lint_core.contains_marker path) markers

(* ---------- module / path naming ---------- *)

(* "Geacc_flow__Graph" -> "Graph", "Dune__exe__Geacc_cli" -> "Geacc_cli":
   strip everything up to the last "__" so wrapped-library prefixes and
   dune's executable mangling never leak into call-graph keys. *)
let norm_unit m =
  let n = String.length m in
  let rec find i =
    if i < 0 then None
    else if m.[i] = '_' && m.[i + 1] = '_' then Some (i + 2)
    else find (i - 1)
  in
  match if n < 2 then None else find (n - 2) with
  | Some i -> String.sub m i (n - i)
  | None -> m

(* One compilation unit: its normalised name and its module aliases
   (module Q = Geacc_pqueue.Int_bucket_queue, at any structure depth)
   mapped to the real unit name. Aliases are collected before any family
   runs, so reference normalisation cannot depend on item order. *)
type unit_ctx = { u_name : string; u_aliases : (string, string) Hashtbl.t }

let unit_ctx modname (str : Typedtree.structure) =
  let aliases = Hashtbl.create 8 in
  let rec structure (str : Typedtree.structure) =
    List.iter
      (fun (si : Typedtree.structure_item) ->
        match si.str_desc with
        | Tstr_module mb -> binding mb
        | Tstr_recmodule mbs -> List.iter binding mbs
        | _ -> ())
      str.str_items
  and binding (mb : Typedtree.module_binding) =
    match (mb.mb_id, mb.mb_expr.mod_desc) with
    | Some id, Tmod_ident (p, _) ->
        Hashtbl.replace aliases (Ident.name id) (norm_unit (Path.last p))
    | _, Tmod_structure str
    | _, Tmod_constraint ({ mod_desc = Tmod_structure str; _ }, _, _, _) ->
        structure str
    | _ -> ()
  in
  structure str;
  { u_name = norm_unit modname; u_aliases = aliases }

(* A value reference as a (module, name) call-graph key. [Pident] is a
   same-unit (or local) name; [Pdot] a cross-module access, keyed by the
   last module component so both an alias path (Geacc_flow.Graph.icost) and
   a mangled direct path (Geacc_flow__Graph.icost) land on "Graph". *)
let ref_target u path =
  match path with
  | Path.Pident id -> Some (u.u_name, Ident.name id)
  | Path.Pdot (m, name) ->
      let base = norm_unit (Path.last m) in
      let base =
        match Hashtbl.find_opt u.u_aliases base with
        | Some real -> real
        | None -> base
      in
      Some (base, name)
  | _ -> None

(* ---------- typedtree helpers shared by the families ---------- *)

let rec pat_var_name (p : Typedtree.pattern) =
  match p.pat_desc with
  | Typedtree.Tpat_var (id, _) -> Some (Ident.name id)
  | Typedtree.Tpat_alias (p, _, _) -> pat_var_name p
  | _ -> None

(* Is [ty] one of the named type constructors? *)
let type_in paths ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> List.exists (Path.same p) paths
  | _ -> false

(* The operand type of a comparison primitive. *)
let cmp_arg_type fn_ty =
  match Types.get_desc fn_ty with
  | Types.Tarrow (_, t1, _, _) -> Some t1
  | _ -> None

(* ---------- definition table ---------- *)

(* One entry per top-level (or module-nested) value binding, keyed by
   (unit, name); the first binding of a name creates the entry and later
   ones share it. The shape fields serve Hot_loop's [missing-inline] and
   boxed-float lookups. The summary fields are Effects': [d_refs] are the
   project callees of the definition's own body (nested closures fold in),
   [d_polls] whether that body polls the budget itself, and [t_polls]
   whether it does so through any callee. *)
type def = {
  d_unit : string;
  d_name : string;
  d_loc : Location.t;
  d_lines : int;
  d_inline : bool;
  mutable d_refs : (string * string) list;
  mutable d_polls : bool;
  mutable t_polls : bool;
}

let defs : (string * string, def) Hashtbl.t = Hashtbl.create 256

let has_inline_attr (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) ->
      match a.attr_name.txt with
      | "inline" | "ocaml.inline" -> true
      | _ -> false)
    attrs

let def_of_binding u (vb : Typedtree.value_binding) =
  let name =
    match pat_var_name vb.vb_pat with
    | Some n -> n
    | None -> Printf.sprintf "(top:%d)" vb.vb_loc.loc_start.pos_lnum
  in
  match Hashtbl.find_opt defs (u.u_name, name) with
  | Some d -> d
  | None ->
      let d =
        {
          d_unit = u.u_name;
          d_name = name;
          d_loc = vb.vb_loc;
          d_lines =
            vb.vb_loc.loc_end.pos_lnum - vb.vb_loc.loc_start.pos_lnum + 1;
          d_inline = has_inline_attr vb.vb_attributes;
          d_refs = [];
          d_polls = false;
          t_polls = false;
        }
      in
      Hashtbl.add defs (u.u_name, name) d;
      d
