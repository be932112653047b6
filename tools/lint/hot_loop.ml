(* Hot_loop — geacc_analyze's per-expression family: what the parsetree
   pass (geacc_lint) cannot see inside the paper's inner loops, because it
   needs types and resolved paths.

   - [hot-loop-alloc]     per-iteration allocation inside the hot loops —
                          [while]/[for] bodies, [let rec] function bodies
                          and [parallel_for]/[parallel_map_chunked]/
                          [parallel_reduce] chunk bodies (which run once per
                          chunk) of the hot-path modules (lib/flow,
                          lib/pqueue, lib/index, lib/par, and
                          lib/core/greedy.ml but not the rest of lib/core):
                          tuple/record/array/constructor
                          and polymorphic-variant blocks, closures, partial
                          applications, lazy blocks, ref cells, let-bound
                          floats boxed by a non-[@inline] call, and
                          polymorphic-compare uses whose instantiated type
                          the compiler cannot specialize.
   - [missing-inline]     advisory: a definition of at most five lines is
                          called from a flagged hot loop but carries no
                          [@inline] (reported once, at the definition).

   A diagnostic is suppressed by the tag [alloc: ok] in a comment on the
   offending line or the line above (the tag grammar is shared with
   geacc_lint's [lint: ok] — see Lint_core.suppressed). *)

open Analyze_core

(* Scoped to the paper's inner-loop modules. Greedy-GEACC's rank walk is
   one of them, and its marker stops at the dot so that the sort-all-pairs
   oracle, greedy_naive.ml, which materialises every pair by design, stays
   out. *)
let hot_markers =
  [ "lib/flow/"; "lib/pqueue/"; "lib/index/"; "lib/par/"; "lib/core/greedy." ]
let inline_advisory_max_lines = 5

let is_hot = under hot_markers

(* Deferred findings that need the finished definition table: [@inline]
   advisories (is the callee small and un-annotated?) and boxed-float
   bindings (an [@inline] callee is assumed to unbox after inlining). *)
type pending =
  | Advisory of {
      target : (string * string) option;
      caller : (string * string) option;
      site : Location.t;
    }
  | Boxed_float of {
      target : (string * string) option;
      display : string;
      site : Location.t;
    }

let pendings : pending list ref = ref []

(* ---------- typedtree helpers ---------- *)

let loc_eq (a : Location.t) (b : Location.t) =
  a.loc_start.pos_cnum = b.loc_start.pos_cnum
  && a.loc_end.pos_cnum = b.loc_end.pos_cnum
  && String.equal a.loc_start.pos_fname b.loc_start.pos_fname

let is_float_type = type_in [ Predef.path_float ]

(* Types at which the compiler specializes the polymorphic comparison
   primitives away from the generic runtime fallback. *)
let cmp_specializable =
  type_in
    [
      Predef.path_int;
      Predef.path_char;
      Predef.path_bool;
      Predef.path_unit;
      Predef.path_float;
      Predef.path_string;
      Predef.path_bytes;
      Predef.path_int32;
      Predef.path_int64;
      Predef.path_nativeint;
    ]

(* The typer wraps an argument [e] passed to an optional parameter as
   [Some e] sharing [e]'s exact location; a [Some] the programmer wrote
   strictly contains its payload. Only the former is skipped. *)
let is_optional_arg_wrap (e : Typedtree.expression)
    (cd : Types.constructor_description) args =
  String.equal cd.Types.cstr_name "Some"
  &&
  match args with
  | [ (a : Typedtree.expression) ] -> loc_eq e.Typedtree.exp_loc a.exp_loc
  | _ -> false

(* ---------- per-cmt scan ---------- *)

type scan_state = {
  ss_unit : unit_ctx;
  mutable ss_defs : def list; (* stack: innermost enclosing definition *)
  mutable ss_loop : int; (* while/for/let-rec nesting depth *)
}

let alloc loc message = report loc "hot-loop-alloc" message

(* The leading Texp_function spine of a recursive binding is the function's
   own parameter list — allocated once at the binding, not once per
   recursive call — so only the spine's leaf bodies (and guards) are
   hot-loop contexts. A chunk body handed to the domain pool gets the same
   treatment: it runs once per chunk, but its parameter spine is allocated
   once per combinator call. *)
let rec walk_rec_body st (it : Tast_iterator.iterator)
    (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.iter
        (fun (c : _ Typedtree.case) ->
          (match c.c_guard with
          | Some g ->
              st.ss_loop <- st.ss_loop + 1;
              it.expr it g;
              st.ss_loop <- st.ss_loop - 1
          | None -> ());
          walk_rec_body st it c.c_rhs)
        cases
  | _ ->
      st.ss_loop <- st.ss_loop + 1;
      it.expr it e;
      st.ss_loop <- st.ss_loop - 1

let check_apply st (e : Typedtree.expression) (f : Typedtree.expression) args
    =
  let partial_by_label = List.exists (fun (_, a) -> a = None) args in
  let arrow_result =
    match Types.get_desc e.exp_type with
    | Types.Tarrow _ -> true
    | _ -> false
  in
  if partial_by_label || arrow_result then
    alloc e.exp_loc
      "partial application allocates a closure on every iteration of this \
       hot loop; pass all arguments or hoist it";
  match f.exp_desc with
  | Texp_ident (path, _, vd) -> (
      match vd.Types.val_kind with
      | Types.Val_prim prim -> (
          match prim.Primitive.prim_name with
          | "%makemutable" ->
              alloc f.exp_loc
                "a ref cell is allocated on every iteration of this hot \
                 loop; hoist the ref out of the loop"
          | "%compare" | "%equal" | "%notequal" | "%lessthan" | "%lessequal"
          | "%greaterthan" | "%greaterequal" -> (
              match cmp_arg_type f.exp_type with
              | Some t1 when not (cmp_specializable t1) ->
                  alloc f.exp_loc
                    "polymorphic comparison cannot be specialized at this \
                     type and falls back to the generic runtime; use a \
                     monomorphic comparison"
              | _ -> ())
          | _ -> ())
      | _ -> (
          let target = ref_target st.ss_unit path in
          (match target with
          | Some ("Stdlib", (("min" | "max") as n)) ->
              alloc f.exp_loc
                (Printf.sprintf
                   "Stdlib.%s compares with the polymorphic runtime; use \
                    Int.%s / Float.%s (or an explicit if)"
                   n n n)
          | _ -> ());
          let caller =
            match st.ss_defs with
            | d :: _ -> Some (d.d_unit, d.d_name)
            | [] -> None
          in
          pendings :=
            Advisory { target; caller; site = f.exp_loc } :: !pendings))
  | _ -> ()

let check_hot_expr st (e : Typedtree.expression) =
  let loc = e.exp_loc in
  match e.exp_desc with
  | Texp_tuple _ ->
      alloc loc
        "a tuple is allocated on every iteration of this hot loop; return \
         components separately or tag (* alloc: ok *)"
  | Texp_construct (_, cd, args)
    when args <> [] && not (is_optional_arg_wrap e cd args) ->
      alloc loc
        (Printf.sprintf
           "constructor %s allocates a block on every iteration of this \
            hot loop"
           cd.Types.cstr_name)
  | Texp_variant (_, Some _) ->
      alloc loc
        "a polymorphic-variant block is allocated on every iteration of \
         this hot loop"
  | Texp_record _ ->
      alloc loc
        "a record is allocated on every iteration of this hot loop"
  | Texp_array (_ :: _) ->
      alloc loc
        "an array is allocated on every iteration of this hot loop"
  | Texp_function _ ->
      alloc loc
        "a closure is allocated on every iteration of this hot loop; hoist \
         it out of the loop or iterate without a callback"
  | Texp_lazy _ ->
      alloc loc
        "a lazy block is allocated on every iteration of this hot loop"
  | Texp_apply (f, args) -> check_apply st e f args
  | _ -> ()

(* A float-typed binding whose right-hand side is a call to an ordinary
   (non-primitive) function: the callee returns a boxed float, and unless
   it is [@inline] the box survives the binding. Resolved after the
   definition table is complete. *)
let check_boxed_float st (vb : Typedtree.value_binding) =
  if is_float_type vb.vb_pat.pat_type then
    match vb.vb_expr.exp_desc with
    | Texp_apply
        ( { exp_desc = Texp_ident (path, _, { val_kind = Types.Val_reg; _ });
            _ },
          _ )
      when is_float_type vb.vb_expr.exp_type ->
        pendings :=
          Boxed_float
            {
              target = ref_target st.ss_unit path;
              display = Path.name path;
              site = vb.vb_loc;
            }
          :: !pendings
    | _ -> ()

let scan u str =
  let st = { ss_unit = u; ss_defs = []; ss_loop = 0 } in
  let open Tast_iterator in
  let expr it (e : Typedtree.expression) =
    if st.ss_loop > 0 && is_hot e.exp_loc.loc_start.pos_fname then
      check_hot_expr st e;
    match e.exp_desc with
    | Texp_while (cond, body) ->
        (* The condition re-evaluates on every iteration, so it is loop
           context too (unlike a for-loop's bounds, evaluated once). *)
        st.ss_loop <- st.ss_loop + 1;
        it.expr it cond;
        it.expr it body;
        st.ss_loop <- st.ss_loop - 1
    | Texp_for (_, _, lo, hi, _, body) ->
        it.expr it lo;
        it.expr it hi;
        st.ss_loop <- st.ss_loop + 1;
        it.expr it body;
        st.ss_loop <- st.ss_loop - 1
    | Texp_let (Recursive, vbs, body) ->
        List.iter
          (fun (vb : Typedtree.value_binding) -> walk_rec_body st it vb.vb_expr)
          vbs;
        it.expr it body
    | Texp_apply (f, args) when is_parallel_combinator f ->
        it.expr it f;
        List.iter
          (fun ((_, arg) : _ * Typedtree.expression option) ->
            match arg with
            | Some a -> (
                match a.exp_desc with
                | Texp_function _ -> walk_rec_body st it a
                | _ -> it.expr it a)
            | None -> ())
          args
    | _ -> default_iterator.expr it e
  in
  let value_binding it (vb : Typedtree.value_binding) =
    if st.ss_loop > 0 && is_hot vb.vb_loc.loc_start.pos_fname then
      check_boxed_float st vb;
    default_iterator.value_binding it vb
  in
  let structure_item it (si : Typedtree.structure_item) =
    match si.str_desc with
    | Tstr_value (rf, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            st.ss_defs <- def_of_binding u vb :: st.ss_defs;
            (match rf with
            | Asttypes.Recursive -> walk_rec_body st it vb.vb_expr
            | Asttypes.Nonrecursive -> it.expr it vb.vb_expr);
            st.ss_defs <- List.tl st.ss_defs)
          vbs
    | _ -> default_iterator.structure_item it si
  in
  let it = { default_iterator with expr; value_binding; structure_item } in
  it.structure it str

(* ---------- resolution: advisories, boxed floats ---------- *)

let resolve () =
  let advised = Hashtbl.create 16 in
  List.iter
    (function
      | Advisory { target = Some key; caller; site } -> (
          match Hashtbl.find_opt defs key with
          | Some d
            when (not d.d_inline)
                 && d.d_lines <= inline_advisory_max_lines
                 && caller <> Some key
                 && not (Hashtbl.mem advised key) ->
              Hashtbl.replace advised key ();
              report d.d_loc "missing-inline"
                (Printf.sprintf
                   "%s.%s (%d lines) is called from a hot loop at %s:%d but \
                    carries no [@inline]; add [@inline] (and [@unboxed] on \
                    any single-field wrapper it involves)"
                   (fst key) (snd key) d.d_lines site.loc_start.pos_fname
                   site.loc_start.pos_lnum)
          | _ -> ())
      | Advisory _ -> ()
      | Boxed_float { target; display; site } ->
          let callee_inlined =
            match target with
            | Some key -> (
                match Hashtbl.find_opt defs key with
                | Some d -> d.d_inline
                | None -> false)
            | None -> false
          in
          if not callee_inlined then
            report site "hot-loop-alloc"
              (Printf.sprintf
                 "the float returned by %s is boxed when let-bound in a hot \
                  loop; mark the callee [@inline], inline the computation, \
                  or tag (* alloc: ok *)"
                 display))
    !pendings
