(* Effects — geacc_analyze's interprocedural family.

   Hot_loop checks per-expression properties inside hot loops. This family
   computes a per-function *effect summary* — writes-shared-mutable,
   reads-nondeterminism-source, polls-budget — and closes it over the
   project call graph with a bounded fixpoint, then enforces the contracts
   of the domain pool and the deadline machinery:

   - [par-shared-write]    (R) a chunk body passed to [parallel_for] /
                           [parallel_map_chunked] / [parallel_reduce] writes
                           captured mutable state — a ref / record field /
                           Bytes / Bigarray it did not create inside the
                           chunk, or (transitively) module-level mutable
                           state. Per-index writes into a captured array are
                           the pool's sanctioned output pattern and stay
                           allowed.
   - [par-nondet]          (R) a chunk body observes an ambient
                           nondeterminism source: the global Random state,
                           the domain identity, wall clocks, std-channel
                           output, hashtable iteration order, or physical
                           equality on a boxed type — directly or through a
                           callee (clocks and hashtable iteration are
                           checked at the chunk itself only).
   - [poll-missing]        (P) an outermost while-loop or recursive function
                           under lib/core// lib/flow never reaches
                           [Budget.check] / [Budget.check_now] in its body's
                           call closure, so the loop cannot be cancelled by
                           a deadline.
   - [suppress-no-reason]  a suppression tag with no justification text.

   Suppression grammar (on the offending line or the line above):
     (* race: ok — <reason> *)    for par-shared-write / par-nondet
     (* poll: ok — <reason> *)    for poll-missing
   The reason is mandatory; a bare tag reports suppress-no-reason instead. *)

open Analyze_core

(* (P) is scoped to the solver kernels that own deadlines. *)
let poll_markers = [ "lib/core/"; "lib/flow/" ]

let in_poll_scope = under poll_markers

(* Ambient nondeterminism observed through a resolved (module, name) call.
   These propagate through the call graph: a chunk body inherits them from
   any project function it reaches. *)
let nondet_source = function
  | ( "Random",
      ( "self_init" | "init" | "full_init" | "bits" | "int" | "full_int"
      | "int32" | "int64" | "nativeint" | "float" | "bool" | "bits32"
      | "bits64" ) ) ->
      Some "uses the global Random state"
  | "Domain", ("self" | "is_main_domain") -> Some "reads the domain identity"
  | ("Printf" | "Format"), ("printf" | "eprintf") ->
      Some "writes to the process std channels"
  | ( "Stdlib",
      ( "print_string" | "print_bytes" | "print_int" | "print_float"
      | "print_char" | "print_endline" | "print_newline" | "prerr_string"
      | "prerr_bytes" | "prerr_int" | "prerr_float" | "prerr_char"
      | "prerr_endline" | "prerr_newline" ) ) ->
      Some "writes to the process std channels"
  | _ -> None

(* Clock reads and hashtable iteration are flagged only when they appear in
   the chunk body itself: transitively every measurement harness reads the
   clock by design, and hashtable iteration over a callee's own local table
   is reproducible. *)
let clock_source = function
  | "Sys", "time" | "Unix", ("gettimeofday" | "time") -> true
  | _ -> false

let hashtbl_iteration = function
  | "Hashtbl", ("iter" | "fold") -> true
  | _ -> false

let hashtbl_mutator = function
  | ( "Hashtbl",
      ("add" | "replace" | "remove" | "reset" | "clear" | "filter_map_inplace")
    ) ->
      true
  | _ -> false

let budget_poll = function
  | "Budget", ("check" | "check_now") -> true
  | _ -> false

(* Mutation primitives, by what they write. Array stores are deliberately
   absent from the violation classes: writing a captured array at the
   chunk's own indices is the pool's sanctioned output pattern (the bench
   sweep grids), and index ownership is not statically decidable
   here. *)
let ref_write_prims = [ "%setfield0"; "%incr"; "%decr" ]
let bytes_write_prims = [ "%bytes_safe_set"; "%bytes_unsafe_set" ]

let bigarray_write_prim name =
  String.length name >= 13 && String.sub name 0 13 = "%caml_ba_set_"
  || String.length name >= 20 && String.sub name 0 20 = "%caml_ba_unsafe_set_"

(* ---------- typedtree helpers ---------- *)

let combinator_name (f : Typedtree.expression) =
  match f.exp_desc with
  | Typedtree.Texp_ident (path, _, _) -> Path.last path
  | _ -> "parallel combinator"

(* The head identifier of a write target: [a.b.(i).c <- e] writes through
   [a]. [Head_remote] is a cross-module access — module-level mutable state
   by construction; [Head_opaque] a computed target we cannot attribute
   (skipped: precision over recall). *)
type head = Head_local of Ident.t | Head_remote of string | Head_opaque

let rec write_head (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> Head_local id
  | Typedtree.Texp_ident (p, _, _) -> Head_remote (Path.name p)
  | Typedtree.Texp_field (b, _, _) -> write_head b
  | Typedtree.Texp_apply
      ( {
          exp_desc =
            Typedtree.Texp_ident
              ( _,
                _,
                {
                  val_kind =
                    Types.Val_prim
                      {
                        Primitive.prim_name =
                          "%array_safe_get" | "%array_unsafe_get" | "%field0";
                        _;
                      };
                  _;
                } );
          _;
        },
        (_, Some a) :: _ ) ->
      write_head a
  | _ -> Head_opaque

let head_display = function
  | Head_local id -> Ident.name id
  | Head_remote name -> name
  | Head_opaque -> "<computed>"

(* Physical equality only tells on boxed values; on immediates it is just
   [=]. *)
let immediate_type =
  type_in
    [ Predef.path_int; Predef.path_char; Predef.path_bool; Predef.path_unit ]

(* ---------- per-cmt scan state ---------- *)

(* A chunk context is one function literal passed to a pool combinator; its
   table holds every identifier bound inside the chunk (its parameters and
   local lets) — anything else the body touches is captured. *)
type chunk_ctx = {
  c_comb : string;
  c_locals : (string, unit) Hashtbl.t; (* Ident.unique_name *)
}

(* A poll-coverage obligation: one while-loop or one recursive binding
   group. Compliance is resolved after the fixpoint, so a loop may satisfy
   (P) through any project function it references. *)
type loop_rec = {
  l_loc : Location.t;
  l_file : string;
  l_start : int;
  l_end : int;
  l_kind : string;
  mutable l_poll : bool;
  mutable l_callees : (string * string) list;
}

(* A project call made from inside a chunk body, checked against the
   callee's transitive summary after the fixpoint. *)
type chunk_call = {
  cc_target : string * string;
  cc_site : Location.t;
  cc_comb : string;
}

let loops : loop_rec list ref = ref []
let chunk_calls : chunk_call list ref = ref []

type scan_state = {
  ss_unit : unit_ctx;
  mutable ss_def : def option;
  mutable ss_def_locals : (string, unit) Hashtbl.t;
  mutable ss_chunks : chunk_ctx list; (* innermost first *)
  mutable ss_loops : loop_rec list; (* open loops, innermost first *)
}

let bind_ident st id =
  let key = Ident.unique_name id in
  Hashtbl.replace st.ss_def_locals key ();
  match st.ss_chunks with
  | c :: _ -> Hashtbl.replace c.c_locals key ()
  | [] -> ()

let chunk_local st id =
  match st.ss_chunks with
  | c :: _ -> Hashtbl.mem c.c_locals (Ident.unique_name id)
  | [] -> true

let def_local st id = Hashtbl.mem st.ss_def_locals (Ident.unique_name id)

let set_def_write st desc =
  match st.ss_def with
  | Some d when d.d_write = None -> d.d_write <- Some desc
  | _ -> ()

let set_def_nondet st desc =
  match st.ss_def with
  | Some d when d.d_nondet = None -> d.d_nondet <- Some desc
  | _ -> ()

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

let in_chunk st = st.ss_chunks <> []

(* ---------- the race rules, at one expression ---------- *)

(* (R), direct form: a mutation primitive inside a chunk body whose target
   was not bound inside the chunk. *)
let check_chunk_write st ~what target loc =
  match target with
  | Head_local id when chunk_local st id -> ()
  | h ->
      let comb =
        match st.ss_chunks with c :: _ -> c.c_comb | [] -> "parallel chunk"
      in
      report loc "par-shared-write"
        (Printf.sprintf
           "the chunk body passed to %s writes %s (%s) it captured; chunks \
            may only write chunk-local state or their own cells of a shared \
            array"
           comb what (head_display h))

let check_chunk_nondet st desc loc =
  let comb =
    match st.ss_chunks with c :: _ -> c.c_comb | [] -> "parallel chunk"
  in
  report loc "par-nondet"
    (Printf.sprintf
       "the chunk body passed to %s %s; chunk results must be a function of \
        the chunk index alone"
       comb desc)

(* ---------- scan ---------- *)

let scan u str =
  let st =
    {
      ss_unit = u;
      ss_def = None;
      ss_def_locals = Hashtbl.create 64;
      ss_chunks = [];
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
    (* Effects and edges carried by a bare identifier reference. *)
    (match e.exp_desc with
    | Texp_ident (path, _, vd) -> (
        match ref_target st.ss_unit path with
        | None -> ()
        | Some key ->
            (* Externals (Val_prim) are classified — Sys.time and
               Unix.gettimeofday are externals — but never become call-graph
               edges: a primitive has no project summary to propagate. *)
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
            end;
            (match nondet_source key with
            | Some desc ->
                set_def_nondet st desc;
                if in_chunk st then check_chunk_nondet st desc e.exp_loc
            | None -> ());
            if in_chunk st then begin
              if clock_source key then
                check_chunk_nondet st "reads a wall clock" e.exp_loc;
              if hashtbl_iteration key then
                check_chunk_nondet st
                  "iterates a hashtable (unspecified order)" e.exp_loc;
              if
                (not is_prim)
                && not
                     (budget_poll key || clock_source key
                    || hashtbl_iteration key)
              then
                chunk_calls :=
                  {
                    cc_target = key;
                    cc_site = e.exp_loc;
                    cc_comb =
                      (match st.ss_chunks with
                      | c :: _ -> c.c_comb
                      | [] -> "parallel chunk");
                  }
                  :: !chunk_calls
            end)
    | _ -> ());
    match e.exp_desc with
    | Texp_setfield (recd, _, lbl, v) ->
        let head = write_head recd in
        (match head with
        | Head_local id when def_local st id -> ()
        | h ->
            set_def_write st
              (Printf.sprintf "writes the mutable field %s.%s"
                 (head_display h) lbl.Types.lbl_name));
        if in_chunk st then
          check_chunk_write st
            ~what:(Printf.sprintf "the record field %s" lbl.Types.lbl_name)
            head e.exp_loc;
        it.expr it recd;
        it.expr it v
    | Texp_apply
        ( ({
             exp_desc =
               Texp_ident (_, _, { val_kind = Types.Val_prim prim; _ });
             _;
           } as f),
          args ) ->
        let name = prim.Primitive.prim_name in
        let first_arg =
          match args with (_, Some a) :: _ -> Some a | _ -> None
        in
        (match first_arg with
        | Some a when List.mem name ref_write_prims ->
            let head = write_head a in
            (match head with
            | Head_local id when def_local st id -> ()
            | h ->
                set_def_write st
                  (Printf.sprintf "writes the ref %s" (head_display h)));
            if in_chunk st then
              check_chunk_write st ~what:"the ref" head e.exp_loc
        | Some a when List.mem name bytes_write_prims ->
            if in_chunk st then
              check_chunk_write st ~what:"the Bytes buffer" (write_head a)
                e.exp_loc
        | Some a when bigarray_write_prim name ->
            if in_chunk st then
              check_chunk_write st ~what:"the Bigarray" (write_head a)
                e.exp_loc
        | _ -> ());
        (match name with
        | "%eq" | "%noteq" when in_chunk st -> (
            match cmp_arg_type f.exp_type with
            | Some t when not (immediate_type t) ->
                check_chunk_nondet st
                  "compares boxed values physically (address identity)"
                  e.exp_loc
            | _ -> ())
        | _ -> ());
        it.expr it f;
        List.iter
          (fun ((_, a) : _ * Typedtree.expression option) ->
            match a with Some a -> it.expr it a | None -> ())
          args
    | Texp_apply
        ( ({ exp_desc = Texp_ident (path, _, { val_kind = Types.Val_reg; _ }); _ }
           as f),
          ((_, Some tbl) :: _ as args) )
      when (match ref_target st.ss_unit path with
           | Some key -> hashtbl_mutator key
           | None -> false) ->
        (* Hashtbl mutation is a shared write exactly when the table itself
           is shared; a table the function (or chunk) made for itself is
           plain local state. *)
        let head = write_head tbl in
        (match head with
        | Head_local id when def_local st id -> ()
        | h ->
            set_def_write st
              (Printf.sprintf "mutates the hashtable %s" (head_display h)));
        if in_chunk st then
          check_chunk_write st ~what:"the hashtable" head e.exp_loc;
        it.expr it f;
        List.iter
          (fun ((_, a) : _ * Typedtree.expression option) ->
            match a with Some a -> it.expr it a | None -> ())
          args
    | Texp_apply (f, args) when is_parallel_combinator f ->
        it.expr it f;
        let comb = combinator_name f in
        List.iter
          (fun ((_, arg) : _ * Typedtree.expression option) ->
            match arg with
            | Some ({ exp_desc = Texp_function _; _ } as a) ->
                let ctx = { c_comb = comb; c_locals = Hashtbl.create 16 } in
                st.ss_chunks <- ctx :: st.ss_chunks;
                it.expr it a;
                st.ss_chunks <- List.tl st.ss_chunks
            | Some a -> it.expr it a
            | None -> ())
          args
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

(* Propagates polls-budget, writes-shared and nondeterminism through the
   project call graph. The iteration count is bounded by the graph's
   longest acyclic chain; the explicit cap keeps a pathological (or
   adversarial) graph from stalling the build, at worst under-reporting
   transitive effects. *)
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
                let c_write =
                  match c.d_write with
                  | Some desc -> Some (callee, desc)
                  | None -> c.t_write
                in
                if d.d_write = None && d.t_write = None && c_write <> None
                then begin
                  d.t_write <- c_write;
                  changed := true
                end;
                let c_nondet =
                  match c.d_nondet with
                  | Some desc -> Some (callee, desc)
                  | None -> c.t_nondet
                in
                if d.d_nondet = None && d.t_nondet = None && c_nondet <> None
                then begin
                  d.t_nondet <- c_nondet;
                  changed := true
                end;
                if (not d.t_polls) && (c.d_polls || c.t_polls) then begin
                  d.t_polls <- true;
                  changed := true
                end)
          d.d_refs)
      defs
  done

(* ---------- resolution: chunk calls (R, transitive) ---------- *)

let resolve_chunk_calls () =
  List.iter
    (fun cc ->
      match Hashtbl.find_opt defs cc.cc_target with
      | None -> ()
      | Some c ->
          let m, n = cc.cc_target in
          let via (rm, rn) =
            if String.equal rm m && String.equal rn n then
              Printf.sprintf "%s.%s" m n
            else Printf.sprintf "%s.%s (via %s.%s)" rm rn m n
          in
          (match
             match c.d_write with
             | Some desc -> Some ((m, n), desc)
             | None -> c.t_write
           with
          | Some (root, desc) ->
              report cc.cc_site "par-shared-write"
                (Printf.sprintf
                   "the chunk body passed to %s reaches %s, which %s; \
                    shared writes make the parallel region racy"
                   cc.cc_comb (via root) desc)
          | None -> ());
          match
            match c.d_nondet with
            | Some desc -> Some ((m, n), desc)
            | None -> c.t_nondet
          with
          | Some (root, desc) ->
              report cc.cc_site "par-nondet"
                (Printf.sprintf
                   "the chunk body passed to %s reaches %s, which %s; \
                    chunk results must be a function of the chunk index \
                    alone"
                   cc.cc_comb (via root) desc)
          | None -> ())
    !chunk_calls

(* ---------- resolution: poll coverage (P) ---------- *)

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
  resolve_chunk_calls ();
  resolve_loops ()
