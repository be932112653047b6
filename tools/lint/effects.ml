(* Effects — geacc_analyze's interprocedural family.

   Hot_loop checks per-expression properties inside hot loops. This family
   records, per function, whether it polls the deadline budget and which
   project functions it calls, closes that over the project call graph
   with a bounded fixpoint, then enforces the deadline machinery's
   obligation:

   - [poll-missing]        an outermost while-loop or recursive function
                           under lib/core/ or lib/flow/ never reaches
                           [Budget.check] / [Budget.check_now] in its body's
                           call closure, so the loop cannot be cancelled by
                           a deadline.
   - [suppress-no-reason]  a suppression tag with no justification text.

   Suppression grammar (on the offending line or the line above):
     (* poll: ok — <reason> *)    for poll-missing
   The reason is mandatory; a bare tag reports suppress-no-reason instead. *)

open Analyze_core

(* The poll rule is scoped to the solver kernels that own deadlines. *)
let poll_markers = [ "lib/core/"; "lib/flow/" ]

let in_poll_scope = under poll_markers

let budget_poll = function
  | "Budget", ("check" | "check_now") -> true
  | _ -> false

(* ---------- per-cmt scan state ---------- *)

(* A poll-coverage obligation: one while-loop or one recursive binding
   group. Compliance is resolved after the fixpoint, so a loop may poll
   through any project function it references. *)
type loop_rec = {
  l_loc : Location.t;
  l_file : string;
  l_start : int;
  l_end : int;
  l_kind : string;
  mutable l_poll : bool;
  mutable l_callees : (string * string) list;
}

let loops : loop_rec list ref = ref []

type scan_state = {
  ss_unit : unit_ctx;
  mutable ss_def : def option;
  mutable ss_def_locals : (string, unit) Hashtbl.t;
  mutable ss_loops : loop_rec list; (* open loops, innermost first *)
}

let bind_ident st id =
  Hashtbl.replace st.ss_def_locals (Ident.unique_name id) ()

let def_local st id = Hashtbl.mem st.ss_def_locals (Ident.unique_name id)

let set_def_polls st =
  match st.ss_def with Some d -> d.d_polls <- true | None -> ()

let note_loop_poll st =
  List.iter (fun l -> l.l_poll <- true) st.ss_loops

let note_callee st key =
  (match st.ss_def with
  | Some d -> if not (List.mem key d.d_refs) then d.d_refs <- key :: d.d_refs
  | None -> ());
  List.iter
    (fun l -> if not (List.mem key l.l_callees) then l.l_callees <- key :: l.l_callees)
    st.ss_loops

(* ---------- scan ---------- *)

let scan u str =
  let st =
    {
      ss_unit = u;
      ss_def = None;
      ss_def_locals = Hashtbl.create 64;
      ss_loops = [];
    }
  in
  let open Tast_iterator in
  (* Walk a binding group as one poll obligation when any right-hand side is
     a function: the group recursion is the loop. *)
  let rec_group it (vbs : Typedtree.value_binding list) =
    let is_fun (vb : Typedtree.value_binding) =
      match vb.vb_expr.exp_desc with
      | Typedtree.Texp_function _ -> true
      | _ -> false
    in
    let file =
      match vbs with
      | vb :: _ -> vb.vb_loc.loc_start.pos_fname
      | [] -> ""
    in
    let wrap body =
      if List.exists is_fun vbs && in_poll_scope file then begin
        let start =
          List.fold_left
            (fun acc (vb : Typedtree.value_binding) ->
              Stdlib.min acc vb.vb_loc.loc_start.pos_cnum)
            max_int vbs
        and stop =
          List.fold_left
            (fun acc (vb : Typedtree.value_binding) ->
              Stdlib.max acc vb.vb_loc.loc_end.pos_cnum)
            min_int vbs
        in
        let names =
          String.concat "/"
            (List.filter_map
               (fun (vb : Typedtree.value_binding) ->
                 match vb.vb_pat.pat_desc with
                 | Typedtree.Tpat_var (id, _) -> Some (Ident.name id)
                 | _ -> None)
               vbs)
        in
        let l =
          {
            l_loc = (List.hd vbs).vb_loc;
            l_file = file;
            l_start = start;
            l_end = stop;
            l_kind = Printf.sprintf "recursive function %s" names;
            l_poll = false;
            l_callees = [];
          }
        in
        loops := l :: !loops;
        st.ss_loops <- l :: st.ss_loops;
        body ();
        st.ss_loops <- List.tl st.ss_loops
      end
      else body ()
    in
    wrap (fun () ->
        List.iter (fun vb -> default_iterator.value_binding it vb) vbs)
  in
  let pat : type k. iterator -> k Typedtree.general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Typedtree.Tpat_var (id, _) -> bind_ident st id
    | Typedtree.Tpat_alias (_, id, _) -> bind_ident st id
    | _ -> ());
    default_iterator.pat it p
  in
  let expr it (e : Typedtree.expression) =
    (* Call-graph edges and polls carried by a bare identifier reference. *)
    (match e.exp_desc with
    | Texp_ident (path, _, vd) -> (
        match ref_target st.ss_unit path with
        | None -> ()
        | Some key ->
            (* Externals (Val_prim) never become call-graph edges: a
               primitive has no project summary to propagate. *)
            let is_prim =
              match vd.Types.val_kind with
              | Types.Val_prim _ -> true
              | _ -> false
            in
            if not is_prim then begin
              (match path with
              | Path.Pident id when def_local st id -> ()
              | _ -> note_callee st key);
              if budget_poll key then begin
                set_def_polls st;
                note_loop_poll st
              end
            end)
    | _ -> ());
    match e.exp_desc with
    | Texp_while (cond, body) ->
        let file = e.exp_loc.loc_start.pos_fname in
        if in_poll_scope file then begin
          let l =
            {
              l_loc = e.exp_loc;
              l_file = file;
              l_start = e.exp_loc.loc_start.pos_cnum;
              l_end = e.exp_loc.loc_end.pos_cnum;
              l_kind = "while loop";
              l_poll = false;
              l_callees = [];
            }
          in
          loops := l :: !loops;
          st.ss_loops <- l :: st.ss_loops;
          it.expr it cond;
          it.expr it body;
          st.ss_loops <- List.tl st.ss_loops
        end
        else begin
          it.expr it cond;
          it.expr it body
        end
    | Texp_for (id, _, lo, hi, _, body) ->
        bind_ident st id;
        it.expr it lo;
        it.expr it hi;
        it.expr it body
    | Texp_let (Recursive, vbs, body) ->
        rec_group it vbs;
        it.expr it body
    | _ -> default_iterator.expr it e
  in
  let structure_item it (si : Typedtree.structure_item) =
    match si.str_desc with
    | Tstr_value (rf, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let saved_def = st.ss_def and saved_locals = st.ss_def_locals in
            st.ss_def <- Some (def_of_binding u vb);
            st.ss_def_locals <- Hashtbl.create 64;
            (match rf with
            | Asttypes.Recursive -> rec_group it [ vb ]
            | Asttypes.Nonrecursive -> it.expr it vb.vb_expr);
            st.ss_def <- saved_def;
            st.ss_def_locals <- saved_locals)
          vbs
    | _ -> default_iterator.structure_item it si
  in
  let it = { default_iterator with expr; pat; structure_item } in
  it.structure it str

(* ---------- bounded interprocedural fixpoint ---------- *)

(* Propagates polls-budget through the project call graph. The iteration
   count is bounded by the graph's longest acyclic chain; the explicit cap
   keeps a pathological (or adversarial) graph from stalling the build, at
   worst under-reporting transitive polls. *)
let fixpoint_bound = 64

let run_fixpoint () =
  let changed = ref true and iters = ref 0 in
  while !changed && !iters < fixpoint_bound do
    changed := false;
    incr iters;
    Hashtbl.iter
      (fun _ d ->
        List.iter
          (fun callee ->
            match Hashtbl.find_opt defs callee with
            | None -> ()
            | Some c ->
                if (not d.t_polls) && (c.d_polls || c.t_polls) then begin
                  d.t_polls <- true;
                  changed := true
                end)
          d.d_refs)
      defs
  done

(* ---------- resolution: poll coverage ---------- *)

(* Only outermost obligations are examined: a loop nested inside another
   collected loop is covered by the outer loop's verdict (its poll, its tag,
   or its diagnostic). *)
let resolve_loops () =
  let all = !loops in
  let contains a b =
    (* strict containment, same file *)
    String.equal a.l_file b.l_file
    && a.l_start <= b.l_start && b.l_end <= a.l_end
    && (a.l_start < b.l_start || b.l_end < a.l_end)
  in
  List.iter
    (fun l ->
      let nested = List.exists (fun outer -> contains outer l) all in
      if not nested then begin
        let compliant =
          l.l_poll
          || List.exists
               (fun key ->
                 match Hashtbl.find_opt defs key with
                 | Some c -> c.d_polls || c.t_polls
                 | None -> false)
               l.l_callees
        in
        if not compliant then
          report l.l_loc "poll-missing"
            (Printf.sprintf
               "this %s never reaches Budget.check/check_now in its call \
                closure, so a deadline cannot cancel it; poll the budget or \
                tag (* poll: ok — <reason> *)"
               l.l_kind)
      end)
    all

let resolve () =
  run_fixpoint ();
  resolve_loops ()
