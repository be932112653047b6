(* geacc_bounds — stage 4 of the project analyzer: bounds-proof pass.

   Usage: geacc_bounds [--format text|json] [--list-rules] DIR...

   Walks the given directories for [.cmt] files and runs an interval /
   affine abstract interpretation over every definition in scope (lib/,
   bin/, bench/ outside the trusted dirs lib/check and lib/unsafe). Every
   array index site — checked or unsafe — is classified as

     proved        0 <= i < Array.length a follows from the facts in scope
     unknown       the analyzer cannot decide (fine for checked accesses)
     out-of-bounds the index is provably negative or provably >= length

   and every *unsafe* site ([%array_unsafe_get/set] primitives, i.e.
   [Geacc_unsafe.unsafe_get/set] and [Array.unsafe_*], plus calls to
   [unsafe_*]-named functions) must carry a licence comment

     (* bounds: proved — <invariant the proof rests on> *)

   on its line or the line directly above. A licensed site the analyzer
   can no longer prove is a hard finding (the licence went stale), as is
   an unlicensed site, a bare licence without a reason, or a licence
   attached to no unsafe site.

   The abstract domain is deliberately small: affine forms [k*s + c] over
   single symbolic values, interval bounds kept as *lists* of affine
   conjuncts, and an append-only per-definition fact base of
   [affine <= affine] pairs discovered from asserts, guards and seeded
   structural invariants. The seeds (Graph CSR geometry, Int_bucket_queue
   column geometry) are exactly the invariants Audit.Flow.check_csr and
   Int_bucket_queue.check_invariant re-verify at runtime — the proofs are
   conditional on them, the audits keep them honest. See DESIGN.md §13.

   Rules: bounds-unlicensed, bounds-unproved, bounds-out-of-bounds,
   bounds-unsafe-def, bounds-orphan-licence, cmt-error. Exit status:
   0 clean, 1 findings, 2 usage. *)

let scope_markers = [ "lib/"; "bin/"; "bench/" ]
let trusted_markers = [ "lib/check/"; "lib/unsafe/" ]
let licence_marker = "bounds: proved"

let rules =
  [
    "bounds-unlicensed"; "bounds-unproved"; "bounds-out-of-bounds";
    "bounds-unsafe-def"; "bounds-orphan-licence"; "cmt-error";
  ]

let in_scope path = List.exists (Lint_core.contains_marker path) scope_markers
let is_trusted path = List.exists (Lint_core.contains_marker path) trusted_markers
let analyzed path = in_scope path && not (is_trusted path)

let is_unsafe_name name =
  String.length name >= 7 && String.equal (String.sub name 0 7) "unsafe_"

(* ---------- diagnostics, source lines, licences ---------- *)

let diags : Lint_core.diagnostic list ref = ref []
let reporting = ref true

let lines_cache : (string, string array) Hashtbl.t = Hashtbl.create 32

let source_lines file =
  match Hashtbl.find_opt lines_cache file with
  | Some l -> l
  | None ->
      let l = try snd (Lint_core.read_lines file) with Sys_error _ -> [||] in
      Hashtbl.replace lines_cache file l;
      l

let report (loc : Location.t) rule message =
  if !reporting && not loc.loc_ghost then begin
    let p = loc.loc_start in
    diags :=
      {
        Lint_core.file = p.pos_fname;
        line = p.pos_lnum;
        col = p.pos_cnum - p.pos_bol;
        rule;
        message;
      }
      :: !diags
  end

(* Licence lines that justified at least one unsafe site; anything else
   carrying the marker is an orphan. *)
let consumed : (string * int, unit) Hashtbl.t = Hashtbl.create 64
let seen_files : (string, unit) Hashtbl.t = Hashtbl.create 32

type licence = L_none | L_bare | L_reasoned

let licence_at (loc : Location.t) =
  let p = loc.loc_start in
  let status, mline =
    Lint_core.reasoned_marker_status ~marker:licence_marker
      (source_lines p.pos_fname) p.pos_lnum
  in
  match status with
  | Lint_core.No_tag -> L_none
  | Lint_core.Tag_without_reason ->
      if !reporting then Hashtbl.replace consumed (p.pos_fname, mline) ();
      L_bare
  | Lint_core.Tag_with_reason ->
      if !reporting then Hashtbl.replace consumed (p.pos_fname, mline) ();
      L_reasoned

(* Classification counters for GEACC_BOUNDS_SUMMARY. *)
type counters = { mutable proved : int; mutable unknown : int }

let counters : (string, counters) Hashtbl.t = Hashtbl.create 16

let count file proved =
  if !reporting then begin
    let c =
      match Hashtbl.find_opt counters file with
      | Some c -> c
      | None ->
          let c = { proved = 0; unknown = 0 } in
          Hashtbl.replace counters file c;
          c
    in
    if proved then c.proved <- c.proved + 1 else c.unknown <- c.unknown + 1
  end

(* ---------- the abstract domain ---------- *)

(* [k * s + c]; [k = 0] is the constant [c] (s is then meaningless). A
   symbol denotes one immutable value observed during the run of the
   definition under analysis — a parameter, an array length, one read of a
   mutable field. Mutation never changes a symbol; it makes the *binding*
   point at a new one. *)
type affine = { k : int; s : int; c : int }

(* GEACC_BOUNDS_DEBUG=1 dumps the abstract state at unproved reasoned
   sites; =2 additionally dumps every site and every fact as it lands. *)
let debug, debug_all =
  match Sys.getenv_opt "GEACC_BOUNDS_DEBUG" with
  | Some "" | None -> (false, false)
  | Some "2" -> (true, true)
  | Some _ -> (true, false)

let const n = { k = 0; s = 0; c = n }
let is_const a = a.k = 0
let sym s = { k = 1; s; c = 0 }
let aff_shift a n = { a with c = a.c + n }

let aff_add a b =
  if a.k = 0 then Some (aff_shift b a.c)
  else if b.k = 0 then Some (aff_shift a b.c)
  else if a.s = b.s then
    let k = a.k + b.k in
    if k = 0 then Some (const (a.c + b.c))
    else Some { k; s = a.s; c = a.c + b.c }
  else None

let aff_neg a = { k = -a.k; s = a.s; c = -a.c }

let aff_mul a n =
  if n = 0 then Some (const 0)
  else if a.k = 0 then Some (const (a.c * n))
  else Some { k = a.k * n; s = a.s; c = a.c * n }

(* Interval with conjunctive bound lists: every [lo] satisfies [lo <= v],
   every [hi] satisfies [v <= hi]. Exact values carry the same affine on
   both sides. *)
type ival = { los : affine list; his : affine list }

let of_aff a = { los = [ a ]; his = [ a ] }
let iv_int n = of_aff (const n)

let bound_cap = 8

let dedup_bounds l =
  let rec go acc = function
    | [] -> List.rev acc
    | b :: rest ->
        if List.exists (fun b' -> b' = b) acc then go acc rest
        else go (b :: acc) rest
  in
  let l = go [] l in
  if List.length l <= bound_cap then l
  else List.filteri (fun i _ -> i < bound_cap) l

let mk_iv los his = { los = dedup_bounds los; his = dedup_bounds his }

let aff_str a =
  if a.k = 0 then string_of_int a.c
  else if a.k = 1 && a.c = 0 then Printf.sprintf "s%d" a.s
  else if a.k = 1 then Printf.sprintf "s%d%+d" a.s a.c
  else Printf.sprintf "%d*s%d%+d" a.k a.s a.c

let iv_str iv =
  Printf.sprintf "[%s .. %s]"
    (String.concat "," (List.map aff_str iv.los))
    (String.concat "," (List.map aff_str iv.his))

let exact_of iv =
  match (iv.los, iv.his) with
  | l :: _, h :: _ when l = h -> Some l
  | _ ->
      List.find_opt (fun l -> List.exists (fun h -> h = l) iv.his) iv.los

let iv_add a b =
  let comb xs ys =
    List.concat_map (fun x -> List.filter_map (fun y -> aff_add x y) ys) xs
  in
  mk_iv (comb a.los b.los) (comb a.his b.his)

let iv_neg a = mk_iv (List.map aff_neg a.his) (List.map aff_neg a.los)
let iv_sub a b = iv_add a (iv_neg b)
let iv_shift a n = iv_add a (iv_int n)

let iv_mul_const a n =
  if n >= 0 then
    mk_iv
      (List.filter_map (fun l -> aff_mul l n) a.los)
      (List.filter_map (fun h -> aff_mul h n) a.his)
  else
    mk_iv
      (List.filter_map (fun h -> aff_mul h n) a.his)
      (List.filter_map (fun l -> aff_mul l n) a.los)

(* ---------- values and environments ---------- *)

module SMap = Map.Make (String)

type value =
  | Int of ival
  | Arr of int (* array token *)
  | Root of string (* record / abstract value with field snapshots *)
  | RefCell of string (* local ref cell, key into env.refs *)
  | RefVal of value (* freshly built [ref e], before being let-bound *)
  | Fun
  | Top

(* Array tokens: identity and length are immutable, so tokens live in
   global (per-cmt) tables and survive every havoc. [tok_content] holds an
   invariant-typed element range (e.g. csr_dst holds node ids); it is
   cleared when the array is passed to an unknown mutator. *)
let tok_counter = ref 0
let sym_counter = ref 0
let tok_len : (int, int) Hashtbl.t = Hashtbl.create 64
let tok_content : (int, ival) Hashtbl.t = Hashtbl.create 16

let fresh_sym () =
  incr sym_counter;
  !sym_counter

type env = {
  vars : value SMap.t; (* immutable bindings *)
  refs : value SMap.t; (* contents of local ref cells *)
  paths : (value * bool) SMap.t; (* "root#field" snapshot, is-mutable *)
  facts : (affine * affine) list; (* append-only: a <= b *)
  csr : unit SMap.t; (* Graph roots with csr_valid known to hold *)
  dead : bool; (* control cannot reach here *)
}

let empty_env =
  {
    vars = SMap.empty;
    refs = SMap.empty;
    paths = SMap.empty;
    facts = [];
    csr = SMap.empty;
    dead = false;
  }

(* The fact base is append-only and deduplicated; the cap bounds the
   entailment search on pathological definitions (sound: dropping a fact
   only loses precision). *)
let facts_cap = 512

let add_fact env a b =
  if env.dead then env
  else if List.exists (fun f -> f = (a, b)) env.facts then env
  else if List.length env.facts >= facts_cap then env
  else begin
    if debug_all then
      Printf.eprintf "DEBUG fact %s <= %s\n" (aff_str a) (aff_str b);
    { env with facts = (a, b) :: env.facts }
  end

let fresh_tok env =
  incr tok_counter;
  let t = !tok_counter in
  let ls = fresh_sym () in
  Hashtbl.replace tok_len t ls;
  (t, add_fact env (const 0) (sym ls))

let len_sym t = Hashtbl.find tok_len t
let len_aff t = sym (len_sym t)

(* ---------- the entailment engine ---------- *)

(* [le facts a b] tries to prove [a <= b]. Base cases compare matching
   shapes; the shift rules rewrite through a fact whose side matches the
   goal's (k, s) pair; the scaled-nonneg rule discharges [n <= k*s + c]
   from [0 <= s] when k > 0 and n <= c. Depth-limited with memoisation —
   the chains the kernels need are 2–5 facts long. *)
let max_depth = 5

let le facts a b =
  let memo : (affine * affine * int, bool) Hashtbl.t = Hashtbl.create 64 in
  let rec go depth a b =
    if depth < 0 then false
    else if is_const a && is_const b then a.c <= b.c
    else if (not (is_const a)) && a.k = b.k && a.s = b.s then a.c <= b.c
    else
      match Hashtbl.find_opt memo (a, b, depth) with
      | Some r -> r
      | None ->
          (* Pessimistic seed cuts cycles through the same subgoal. *)
          Hashtbl.replace memo (a, b, depth) false;
          let r =
            (is_const a && b.k > 0 && a.c <= b.c
            && go (depth - 1) (const 0) (sym b.s))
            || List.exists
                 (fun (p, q) ->
                   (not (is_const p))
                   && p.k = a.k && p.s = a.s
                   && go (depth - 1) (aff_shift q (a.c - p.c)) b)
                 facts
            || List.exists
                 (fun (p, q) ->
                   (not (is_const q))
                   && q.k = b.k && q.s = b.s
                   && go (depth - 1) a (aff_shift p (b.c - q.c)))
                 facts
          in
          Hashtbl.replace memo (a, b, depth) r;
          r
  in
  go max_depth a b

(* v >= n, i.e. some lower bound dominates the constant. *)
let iv_ge facts iv n = List.exists (fun l -> le facts (const n) l) iv.los

(* v <= b for an affine b. *)
let iv_le_aff facts iv b = List.exists (fun h -> le facts h b) iv.his

let iv_ge_aff facts iv b = List.exists (fun l -> le facts b l) iv.los

(* ---------- joins ---------- *)

let join_iv fa fb a b =
  (* An unchanged value joining with itself stays itself — without this
     shortcut the weakening candidates below would grow the bound lists at
     every join until the cap evicts the bounds that matter. *)
  if a.los = b.los && a.his = b.his then a
  else
  (* Candidate bounds are both sides' bounds plus their one-step
     weakenings: a branch that stepped an index (i := parent) typically
     satisfies the other branch's bound shifted by one, and the weakened
     form is the loop invariant worth keeping. A candidate survives only
     if *both* branches entail it under their own facts. Originals come
     first so the bound cap evicts weakenings, never shared bounds. *)
  let cand_his =
    a.his @ b.his @ List.map (fun h -> aff_shift h 1) (a.his @ b.his)
  in
  let cand_los =
    (* Seed the constant floors too: "i >= 0" across a join of [i := 2i+1]
       with [i unchanged] is entailed by both sides' facts without being in
       either side's bound list. *)
    a.los @ b.los
    @ List.map (fun l -> aff_shift l (-1)) (a.los @ b.los)
    @ [ const 0; const 1 ]
  in
  mk_iv
    (List.filter
       (fun l ->
         List.exists (fun la -> le fa l la) a.los
         && List.exists (fun lb -> le fb l lb) b.los)
       cand_los)
    (List.filter
       (fun h ->
         List.exists (fun ha -> le fa ha h) a.his
         && List.exists (fun hb -> le fb hb h) b.his)
       cand_his)

let rec join_value fa fb va vb =
  match (va, vb) with
  | Int a, Int b -> Int (join_iv fa fb a b)
  | Arr a, Arr b when a = b -> Arr a
  | Arr a, Arr b ->
      (* Two different arrays joining: the result is *some* array, so give
         it a fresh token (unknown length) rather than collapsing to Top —
         a later [assert (Array.length x = n)] can still pin it down. *)
      incr tok_counter;
      let t = !tok_counter in
      Hashtbl.replace tok_len t (fresh_sym ());
      if debug_all then
        Printf.eprintf "DEBUG join Arr#%d/Arr#%d -> Arr#%d(|.|=s%d)\n" a b t
          (len_sym t);
      Arr t
  | RefVal a, RefVal b -> RefVal (join_value fa fb a b)
  | _ -> if va = vb then va else Top

let inter_facts f1 f2 =
  List.filter (fun f -> List.exists (fun f' -> f' = f) f2) f1

let join_env e1 e2 =
  if e1.dead then e2
  else if e2.dead then e1
  else
    let meet merge m1 m2 =
      SMap.merge
        (fun _ a b ->
          match (a, b) with Some a, Some b -> merge a b | _ -> None)
        m1 m2
    in
    {
      vars = meet (fun a b -> Some (join_value e1.facts e2.facts a b)) e1.vars e2.vars;
      refs = meet (fun a b -> Some (join_value e1.facts e2.facts a b)) e1.refs e2.refs;
      paths =
        meet
          (fun (a, m) (b, _) -> Some (join_value e1.facts e2.facts a b, m))
          e1.paths e2.paths;
      facts = inter_facts e1.facts e2.facts;
      csr = meet (fun () () -> Some ()) e1.csr e2.csr;
      dead = false;
    }

(* ---------- havoc ---------- *)

let havoc_root env root =
  {
    env with
    paths =
      SMap.filter
        (fun key (_, mut) ->
          not
            (mut
            && (String.equal key root
               || (String.length key > String.length root
                  && String.sub key 0 (String.length root + 1) = root ^ "#"))))
        env.paths;
    csr = SMap.remove root env.csr;
  }

(* An unknown call: every ref cell and every mutable snapshot may have
   changed. Immutable bindings, array identities/lengths and the facts —
   which describe values, not bindings — survive. *)
let full_havoc env =
  {
    env with
    refs = SMap.empty;
    paths = SMap.filter (fun _ (_, mut) -> not mut) env.paths;
    csr = SMap.empty;
  }

let root_of_value = function Root r -> Some r | _ -> None

(* ---------- types ---------- *)

let type_is p ty =
  match Types.get_desc ty with
  | Types.Tconstr (q, _, _) -> Path.same p q
  | _ -> false

let is_int_type = type_is Predef.path_int

(* "Geacc_flow__Graph" -> "Graph" (same normalisation as stage 2/3). *)
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

(* The record type a label belongs to, as "Unit.t" — keys the seeded
   invariant tables. *)
let label_type_key ~unit_name (lbl : Types.label_description) =
  match Types.get_desc lbl.Types.lbl_res with
  | Types.Tconstr (p, _, _) -> (
      let tname = Path.last p in
      match p with
      | Path.Pdot (m, _) -> Some (norm_unit (Path.last m) ^ "." ^ tname)
      | Path.Pident _ -> Some (unit_name ^ "." ^ tname)
      | _ -> None)
  | _ -> None

let ref_target ~unit_name ~aliases path =
  match path with
  | Path.Pident id -> Some (unit_name, Ident.name id)
  | Path.Pdot (m, name) ->
      let base = norm_unit (Path.last m) in
      let base =
        match Hashtbl.find_opt aliases base with
        | Some real -> real
        | None -> base
      in
      Some (base, name)
  | _ -> None

(* ---------- per-cmt scan state ---------- *)

type scan_state = {
  ss_unit : string;
  ss_aliases : (string, string) Hashtbl.t;
}

let stdlib_units =
  [
    "Stdlib"; "Array"; "List"; "Float"; "Int"; "Char"; "String"; "Bytes";
    "Queue"; "Stack"; "Hashtbl"; "Map"; "Set"; "Buffer"; "Printf"; "Format";
    "Option"; "Result"; "Sys"; "Gc"; "Random"; "Filename"; "Fun"; "Seq";
    "Lazy"; "Either"; "Bool"; "Domain"; "Atomic"; "Mutex"; "Condition";
  ]

let noreturn_names = [ "invalid_arg"; "failwith"; "raise"; "raise_notrace"; "exit" ]

(* ---------- slots: where a comparison refinement is written back ---------- *)

type slot = S_none | S_var of string | S_ref of string | S_path of string

let store_slot env slot iv =
  match slot with
  | S_none -> env
  | S_var n -> { env with vars = SMap.add n (Int iv) env.vars }
  | S_ref r -> { env with refs = SMap.add r (Int iv) env.refs }
  | S_path k -> (
      match SMap.find_opt k env.paths with
      | Some (_, mut) -> { env with paths = SMap.add k (Int iv, mut) env.paths }
      | None -> env)

(* ---------- default values by type ---------- *)

let root_counter = ref 0

let fresh_root () =
  incr root_counter;
  Printf.sprintf "\xcf\x81%d" !root_counter

(* An unknown value of type [ty]: ints get a fresh exact symbol (so later
   guards can pin them down), arrays a fresh token, abstract/record types a
   fresh root, arrows a closure marker. *)
let rec default_value env ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> (env, Fun)
  | Types.Tconstr (p, _, _) when Path.same p Predef.path_int ->
      (env, Int (of_aff (sym (fresh_sym ()))))
  | Types.Tconstr (p, _, _) when Path.same p Predef.path_array ->
      let t, env = fresh_tok env in
      (env, Arr t)
  | Types.Tconstr (p, _, _)
    when Path.same p Predef.path_float || Path.same p Predef.path_bool
         || Path.same p Predef.path_unit || Path.same p Predef.path_string
         || Path.same p Predef.path_char ->
      (env, Top)
  | Types.Tconstr _ -> (env, Root (fresh_root ()))
  | Types.Tlink t | Types.Tsubst (t, _) -> default_value env t
  | _ -> (env, Top)

(* ---------- seeded structural invariants ---------- *)

(* Get-or-create one field snapshot. Content seeding (for freshly created
   tokens only) is the caller's business. *)
let get_path env root field ~mut kind =
  let key = root ^ "#" ^ field in
  match SMap.find_opt key env.paths with
  | Some (v, _) -> (env, v)
  | None ->
      let env, v =
        match kind with
        | `Int -> (env, Int (of_aff (sym (fresh_sym ()))))
        | `Arr ->
            let t, env = fresh_tok env in
            (env, Arr t)
        | `Top -> (env, Top)
      in
      ({ env with paths = SMap.add key (v, mut) env.paths }, v)

let exact_int = function Int iv -> exact_of iv | _ -> None
let tok_of = function Arr t -> Some t | _ -> None

let seed_content v lo hi =
  (* Only seed content on tokens this materialisation created — a token
     that arrived from elsewhere may be any array. *)
  match tok_of v with
  | Some t when not (Hashtbl.mem tok_content t) ->
      Hashtbl.replace tok_content t (mk_iv [ lo ] [ hi ])
  | _ -> ()

let fact_le env va vb =
  match (va, vb) with Some a, Some b -> add_fact env a b | _ -> env

let len_of v = Option.map len_aff (tok_of v)

(* Graph core: num_nodes/count/head plus the five arc-store arrays, with
   the invariants from graph.ml's header. Idempotent — existing snapshots
   (including ones from a literal record construction) are reused. *)
let materialize_graph env r =
  let env, nv = get_path env r "num_nodes" ~mut:false `Int in
  let env, cv = get_path env r "count" ~mut:true `Int in
  let env, head = get_path env r "head" ~mut:false `Arr in
  let env, next = get_path env r "next" ~mut:true `Arr in
  let env, dst_ = get_path env r "dst_" ~mut:true `Arr in
  let env, cap_ = get_path env r "cap_" ~mut:true `Arr in
  let env, icap = get_path env r "initial_cap" ~mut:true `Arr in
  let env, icost_ = get_path env r "icost_" ~mut:true `Arr in
  let n = exact_int nv and c = exact_int cv in
  let env = fact_le env (Some (const 0)) n in
  let env = fact_le env (Some (const 0)) c in
  let env = fact_le env c (len_of next) in
  let env = fact_le env c (len_of dst_) in
  let env = fact_le env c (len_of cap_) in
  let env = fact_le env c (len_of icap) in
  let env = fact_le env c (len_of icost_) in
  let env = fact_le env n (len_of head) in
  let env = fact_le env (len_of head) n in
  (match (n, c) with
  | Some n, Some c ->
      seed_content dst_ (const 0) (aff_shift n (-1));
      seed_content head (const (-1)) (aff_shift c (-1));
      seed_content next (const (-1)) (aff_shift c (-1))
  | _ -> ());
  env

(* CSR geometry, valid only while [csr_valid t] — callers establish that
   via finalize_csr, an explicit csr_valid guard, or a callee assert. *)
let seed_csr env r =
  let env = materialize_graph env r in
  let env, off = get_path env r "csr_offset" ~mut:true `Arr in
  let env, cdst = get_path env r "csr_dst" ~mut:true `Arr in
  let env, cicost = get_path env r "csr_icost" ~mut:true `Arr in
  let env, ccap = get_path env r "csr_cap" ~mut:true `Arr in
  let env, carc = get_path env r "csr_arc" ~mut:true `Arr in
  let env, apos = get_path env r "arc_pos" ~mut:true `Arr in
  let n = exact_int (snd (get_path env r "num_nodes" ~mut:false `Int)) in
  let c = exact_int (snd (get_path env r "count" ~mut:true `Int)) in
  let np1 = Option.map (fun a -> aff_shift a 1) n in
  let env = fact_le env np1 (len_of off) in
  let env = fact_le env (len_of off) np1 in
  let env = fact_le env c (len_of cdst) in
  let env = fact_le env c (len_of cicost) in
  let env = fact_le env c (len_of ccap) in
  let env = fact_le env c (len_of carc) in
  let env = fact_le env c (len_of apos) in
  (match (n, c) with
  | Some n, Some c ->
      seed_content cdst (const 0) (aff_shift n (-1));
      seed_content off (const 0) c;
      seed_content carc (const 0) (aff_shift c (-1));
      seed_content apos (const 0) (aff_shift c (-1))
  | _ -> ());
  { env with csr = SMap.add r () env.csr }

let csr_known env r = SMap.mem r env.csr

(* Bucket-queue core: the three per-bucket columns have exactly 64
   ([Int_bucket_queue.buckets]) slots, fixed at creation. The per-bucket
   length invariant [0 <= lens.(b) <= |keys.(b)| = |payloads.(b)|] lives
   in nested arrays this domain cannot index, so the queue re-checks it
   with runtime asserts at each unsafe site (and in check_invariant);
   the asserts are what the licences there cite. *)
let materialize_bucket env r =
  let env, sv = get_path env r "size" ~mut:true `Int in
  let env, lv = get_path env r "last" ~mut:true `Int in
  let env, kv = get_path env r "keys" ~mut:false `Arr in
  let env, pv = get_path env r "payloads" ~mut:false `Arr in
  let env, ev = get_path env r "lens" ~mut:false `Arr in
  let env = fact_le env (Some (const 0)) (exact_int sv) in
  let env = fact_le env (Some (const 0)) (exact_int lv) in
  let b64 = Some (const 64) in
  let env = fact_le env (len_of kv) b64 in
  let env = fact_le env b64 (len_of kv) in
  let env = fact_le env (len_of pv) b64 in
  let env = fact_le env b64 (len_of pv) in
  let env = fact_le env (len_of ev) b64 in
  let env = fact_le env b64 (len_of ev) in
  env

(* ---------- typedtree helpers ---------- *)

let prim_name (vd : Types.value_description) =
  match vd.Types.val_kind with
  | Types.Val_prim p -> Some p.Primitive.prim_name
  | _ -> None

let is_bool_constr (e : Typedtree.expression) name =
  match e.exp_desc with
  | Typedtree.Texp_construct (_, cd, []) -> String.equal cd.Types.cstr_name name
  | _ -> false

(* ---------- site classification ---------- *)

(* GEACC_BOUNDS_DEBUG=1 dumps the abstract state at every reasoned licence
   the analyzer fails to re-prove — the first tool to reach for when a
   kernel change makes @bounds go red. *)
let value_str = function
  | Int iv -> "Int " ^ iv_str iv
  | Arr t -> Printf.sprintf "Arr#%d(|.|=s%d)" t (len_sym t)
  | Root r -> "Root " ^ r
  | RefCell r -> "RefCell " ^ r
  | RefVal _ -> "RefVal"
  | Fun -> "Fun"
  | Top -> "Top"

let debug_site env (loc : Location.t) arr_v idx_v =
  let p = loc.loc_start in
  Printf.eprintf "DEBUG %s:%d:%d\n  arr = %s\n  idx = %s\n  facts:\n"
    p.Lexing.pos_fname p.pos_lnum
    (p.pos_cnum - p.pos_bol)
    (value_str arr_v) (value_str idx_v);
  List.iter
    (fun (a, b) -> Printf.eprintf "    %s <= %s\n" (aff_str a) (aff_str b))
    env.facts

(* Every array index site is classified from the facts in scope. Checked
   sites only feed the summary counters (unless provably out of bounds);
   unsafe sites additionally must carry a reasoned licence the analyzer can
   re-prove. *)
let classify_site env (loc : Location.t) ~unsafe arr_v idx_v =
  let file = loc.loc_start.Lexing.pos_fname in
  if debug_all && !reporting then debug_site env loc arr_v idx_v;
  let proved, oob =
    match (arr_v, idx_v) with
    | Arr t, Int iv ->
        let lenm1 = aff_shift (len_aff t) (-1) in
        ( iv_ge env.facts iv 0 && iv_le_aff env.facts iv lenm1,
          iv_le_aff env.facts iv (const (-1))
          || List.exists (fun l -> le env.facts (len_aff t) l) iv.los )
    | _, Int iv -> (false, iv_le_aff env.facts iv (const (-1)))
    | _ -> (false, false)
  in
  if oob then
    report loc "bounds-out-of-bounds" "index is provably outside the array";
  if unsafe then begin
    match licence_at loc with
    | L_none ->
        report loc "bounds-unlicensed"
          "unsafe array access without a `bounds: proved — <reason>` licence"
    | L_bare ->
        report loc "bounds-unlicensed"
          "unsafe array access under a bare licence (no invariant stated)"
    | L_reasoned ->
        if proved then count file true
        else if not oob then begin
          if debug && !reporting then debug_site env loc arr_v idx_v;
          report loc "bounds-unproved"
            "stale licence: the analyzer cannot re-prove this unsafe access"
        end
  end
  else count file proved

(* ---------- pattern binding ---------- *)

let bind_name env name v =
  match v with
  | RefVal inner ->
      {
        env with
        vars = SMap.add name (RefCell name) env.vars;
        refs = SMap.add name inner env.refs;
      }
  | _ -> { env with vars = SMap.add name v env.vars }

(* Field reads materialise the per-type seeded invariants before handing
   back the snapshot. *)
let read_label ss env r (lbl : Types.label_description) =
  let env =
    match label_type_key ~unit_name:ss.ss_unit lbl with
    | Some "Graph.t" -> materialize_graph env r
    | Some "Int_bucket_queue.t" -> materialize_bucket env r
    | _ -> env
  in
  let key = r ^ "#" ^ lbl.Types.lbl_name in
  match SMap.find_opt key env.paths with
  | Some (v, _) -> (env, v)
  | None ->
      let mut = lbl.Types.lbl_mut = Asttypes.Mutable in
      let env, v = default_value env lbl.Types.lbl_arg in
      ({ env with paths = SMap.add key (v, mut) env.paths }, v)

let rec bind_pattern :
    type k. scan_state -> env -> k Typedtree.general_pattern -> value -> env =
 fun ss env pat v ->
  match pat.pat_desc with
  | Typedtree.Tpat_any -> env
  | Typedtree.Tpat_var (id, _) -> bind_name env (Ident.name id) v
  | Typedtree.Tpat_alias (p, id, _) ->
      bind_pattern ss (bind_name env (Ident.name id) v) p v
  | Typedtree.Tpat_value arg -> bind_pattern ss env (arg :> Typedtree.pattern) v
  | Typedtree.Tpat_exception p -> bind_pattern ss env p Top
  | Typedtree.Tpat_or (p, _, _) -> bind_pattern ss env p v
  | Typedtree.Tpat_tuple ps ->
      List.fold_left (fun env p -> bind_default_pat ss env p) env ps
  | Typedtree.Tpat_construct (_, _, ps, _) ->
      List.fold_left (fun env p -> bind_default_pat ss env p) env ps
  | Typedtree.Tpat_variant (_, Some p, _) -> bind_default_pat ss env p
  | Typedtree.Tpat_array ps ->
      List.fold_left (fun env p -> bind_default_pat ss env p) env ps
  | Typedtree.Tpat_lazy p -> bind_default_pat ss env p
  | Typedtree.Tpat_record (fields, _) ->
      List.fold_left
        (fun env (_, lbl, p) ->
          match root_of_value v with
          | Some r ->
              let env, fv = read_label ss env r lbl in
              bind_pattern ss env p fv
          | None -> bind_default_pat ss env p)
        env fields
  | _ -> env

and bind_default_pat :
    type k. scan_state -> env -> k Typedtree.general_pattern -> env =
 fun ss env p ->
  let env, v = default_value env p.pat_type in
  bind_pattern ss env p v

(* ---------- loop stability ---------- *)

(* A binding is stable through a loop body when it denotes the same value
   shape at head and end: same exact symbol for ints (narrowing only adds
   bounds, so the exact pair survives), same token for arrays, same root
   for abstract values. *)
let value_stable hv ev =
  match (hv, ev) with
  | Int a, Int b -> (
      match exact_of a with
      | Some x ->
          List.exists (fun l -> l = x) b.los && List.exists (fun h -> h = x) b.his
      | None -> false)
  | Arr a, Arr b -> a = b
  | Root a, Root b -> String.equal a b
  | RefCell a, RefCell b -> String.equal a b
  | Fun, Fun | Top, Top -> true
  | _ -> false

let compare_prims =
  [
    "%lessthan"; "%lessequal"; "%greaterthan"; "%greaterequal"; "%equal";
    "%notequal"; "%eq"; "%noteq";
  ]

(* ---------- the evaluator ---------- *)

let rec eval ss env (e : Typedtree.expression) : env * value =
  if env.dead then (env, Top)
  else
    match e.exp_desc with
    | Typedtree.Texp_ident (path, _, vd) -> (
        match prim_name vd with
        | Some _ -> (env, Fun)
        | None -> (
            match path with
            | Path.Pident id -> (
                match SMap.find_opt (Ident.name id) env.vars with
                | Some v -> (env, v)
                | None -> default_value env e.exp_type)
            | _ -> default_value env e.exp_type))
    | Typedtree.Texp_constant (Asttypes.Const_int n) -> (env, Int (iv_int n))
    | Typedtree.Texp_constant _ -> (env, Top)
    | Typedtree.Texp_let (_, vbs, body) ->
        let env =
          List.fold_left
            (fun env (vb : Typedtree.value_binding) ->
              let env, v = eval ss env vb.vb_expr in
              bind_pattern ss env vb.vb_pat v)
            env vbs
        in
        eval ss env body
    | Typedtree.Texp_function { cases; _ } ->
        closure_cases ss env cases;
        (env, Fun)
    | Typedtree.Texp_lazy body ->
        ignore (eval ss (closure_env env) body);
        (env, Fun)
    | Typedtree.Texp_apply (f, args) -> eval_apply ss env e f args
    | Typedtree.Texp_match (scrut, cases, _) ->
        let env, sv = eval ss env scrut in
        eval_cases ss env cases sv
    | Typedtree.Texp_try (body, handlers) ->
        let envb, vb = eval ss env body in
        let envh, vh = eval_cases ss (full_havoc env) handlers Top in
        (join_env envb envh, join_value envb.facts envh.facts vb vh)
    | Typedtree.Texp_ifthenelse (c, t, fo) -> (
        let envt = cond ss env c true in
        let envf = cond ss env c false in
        let envt, vt = eval ss envt t in
        match fo with
        | Some f ->
            let envf, vf = eval ss envf f in
            (join_env envt envf, join_value envt.facts envf.facts vt vf)
        | None -> (join_env envt envf, Top))
    | Typedtree.Texp_sequence (a, b) ->
        let env, _ = eval ss env a in
        eval ss env b
    | Typedtree.Texp_while (guard, body) -> while_fix ss env guard body
    | Typedtree.Texp_for (id, _, lo, hi, dir, body) ->
        for_fix ss env id lo hi dir body
    | Typedtree.Texp_assert (e', _) ->
        if is_bool_constr e' "false" then ({ env with dead = true }, Top)
        else (cond ss env e' true, Top)
    | Typedtree.Texp_field (b, _, lbl) -> (
        let env, bv = eval ss env b in
        match root_of_value bv with
        | Some r -> read_label ss env r lbl
        | None -> default_value env e.exp_type)
    | Typedtree.Texp_setfield (b, _, lbl, rhs) -> (
        let env, rv = eval ss env rhs in
        let env, bv = eval ss env b in
        match root_of_value bv with
        | Some r ->
            (* Store-forward: the snapshot is exactly what was written.
               Any csr claim about this root is gone. *)
            ( {
                env with
                paths =
                  SMap.add (r ^ "#" ^ lbl.Types.lbl_name) (rv, true) env.paths;
                csr = SMap.remove r env.csr;
              },
              Top )
        | None -> (env, Top))
    | Typedtree.Texp_record { fields; extended_expression; _ } ->
        let env =
          match extended_expression with
          | Some b -> fst (eval ss env b)
          | None -> env
        in
        let r = fresh_root () in
        let env =
          Array.fold_left
            (fun env (lbl, def) ->
              match def with
              | Typedtree.Kept _ -> env
              | Typedtree.Overridden (_, fe) ->
                  let env, fv = eval ss env fe in
                  let mut = lbl.Types.lbl_mut = Asttypes.Mutable in
                  {
                    env with
                    paths =
                      SMap.add (r ^ "#" ^ lbl.Types.lbl_name) (fv, mut) env.paths;
                  })
            env fields
        in
        (env, Root r)
    | Typedtree.Texp_array es ->
        let env =
          List.fold_left (fun env x -> fst (eval ss env x)) env es
        in
        let t, env = fresh_tok env in
        let n = const (List.length es) in
        let env = add_fact env (len_aff t) n in
        let env = add_fact env n (len_aff t) in
        (env, Arr t)
    | Typedtree.Texp_construct (_, _, es) | Typedtree.Texp_tuple es ->
        let env = List.fold_left (fun env x -> fst (eval ss env x)) env es in
        (env, Top)
    | Typedtree.Texp_variant (_, eo) ->
        let env = match eo with Some x -> fst (eval ss env x) | None -> env in
        (env, Top)
    | Typedtree.Texp_open (_, body) -> eval ss env body
    | _ -> (full_havoc env, Top)

and eval_list ss env es =
  let env, rev =
    List.fold_left
      (fun (env, acc) x ->
        let env, v = eval ss env x in
        (env, v :: acc))
      (env, []) es
  in
  (env, List.rev rev)

and eval_cases :
    type k. scan_state -> env -> k Typedtree.case list -> value -> env * value =
 fun ss env cases sv ->
  let results =
    List.filter_map
      (fun (c : k Typedtree.case) ->
        let benv = bind_pattern ss env c.c_lhs sv in
        let benv =
          match c.c_guard with Some g -> cond ss benv g true | None -> benv
        in
        let renv, rv = eval ss benv c.c_rhs in
        if renv.dead then None else Some (renv, rv))
      cases
  in
  match results with
  | [] -> ({ env with dead = true }, Top)
  | (e0, v0) :: rest ->
      List.fold_left
        (fun (ea, va) (eb, vb) ->
          (join_env ea eb, join_value ea.facts eb.facts va vb))
        (e0, v0) rest

(* A closure escapes: its body runs at some unknown later time, so it sees
   the havocked view of the world (facts and immutable bindings survive;
   ref cells and mutable snapshots do not). *)
and closure_env env = { (full_havoc env) with refs = SMap.empty }

and closure_cases : type k. scan_state -> env -> k Typedtree.case list -> unit =
 fun ss env cases ->
  let cenv = closure_env env in
  List.iter
    (fun (c : k Typedtree.case) ->
      let benv = bind_default_pat ss cenv c.c_lhs in
      let benv =
        match c.c_guard with Some g -> cond ss benv g true | None -> benv
      in
      ignore (eval ss benv c.c_rhs))
    cases

(* Evaluate a comparison operand, remembering where a refinement can be
   written back: a plain variable, a ref deref [!r], or a field [t.f]. *)
and eval_operand ss env (e : Typedtree.expression) : env * value * slot =
  let fallback env =
    let env, v = eval ss env e in
    (env, v, S_none)
  in
  match e.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, vd) when prim_name vd = None -> (
      let n = Ident.name id in
      match SMap.find_opt n env.vars with
      | Some (Int iv) -> (env, Int iv, S_var n)
      | _ -> fallback env)
  | Typedtree.Texp_apply
      ({ exp_desc = Typedtree.Texp_ident (_, _, vd); _ }, [ (_, Some r) ])
    when prim_name vd = Some "%field0" -> (
      match r.exp_desc with
      | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
          match SMap.find_opt (Ident.name id) env.vars with
          | Some (RefCell rc) -> (
              match SMap.find_opt rc env.refs with
              | Some (Int iv) -> (env, Int iv, S_ref rc)
              | Some v -> (env, v, S_none)
              | None ->
                  let env, v = default_value env e.exp_type in
                  let env = { env with refs = SMap.add rc v env.refs } in
                  (env, v, match v with Int _ -> S_ref rc | _ -> S_none))
          | _ -> fallback env)
      | _ -> fallback env)
  | Typedtree.Texp_field (b, _, lbl) -> (
      match b.exp_desc with
      | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
          match SMap.find_opt (Ident.name id) env.vars with
          | Some (Root r) ->
              let env, v = read_label ss env r lbl in
              let key = r ^ "#" ^ lbl.Types.lbl_name in
              (env, v, match v with Int _ -> S_path key | _ -> S_none)
          | _ -> fallback env)
      | _ -> fallback env)
  | _ -> fallback env

(* Narrow both operands of an integer relation and record the fact when
   both sides are exact. *)
and apply_rel env (va, sa) rel (vb, sb) =
  match (va, vb) with
  | Int a, Int b -> (
      let ea = exact_of a and eb = exact_of b in
      match rel with
      | `Lt -> (
          let env =
            store_slot env sa
              (mk_iv a.los (List.map (fun h -> aff_shift h (-1)) b.his @ a.his))
          in
          let env =
            store_slot env sb
              (mk_iv (List.map (fun l -> aff_shift l 1) a.los @ b.los) b.his)
          in
          match (ea, eb) with
          | Some x, Some y -> add_fact env (aff_shift x 1) y
          | _ -> env)
      | `Le -> (
          let env = store_slot env sa (mk_iv a.los (b.his @ a.his)) in
          let env = store_slot env sb (mk_iv (a.los @ b.los) b.his) in
          match (ea, eb) with
          | Some x, Some y -> add_fact env x y
          | _ -> env)
      | `Eq -> (
          let env = store_slot env sa (mk_iv (b.los @ a.los) (b.his @ a.his)) in
          let env = store_slot env sb (mk_iv (a.los @ b.los) (a.his @ b.his)) in
          match (ea, eb) with
          | Some x, Some y -> add_fact (add_fact env x y) y x
          | _ -> env)
      | `Ne ->
          let refine env (v, s) other =
            match exact_of other with
            | None -> env
            | Some ew ->
                if iv_ge_aff env.facts v ew then
                  let env =
                    match exact_of v with
                    | Some x -> add_fact env (aff_shift ew 1) x
                    | None -> env
                  in
                  store_slot env s (mk_iv (aff_shift ew 1 :: v.los) v.his)
                else if iv_le_aff env.facts v ew then
                  let env =
                    match exact_of v with
                    | Some x -> add_fact env x (aff_shift ew (-1))
                    | None -> env
                  in
                  store_slot env s (mk_iv v.los (aff_shift ew (-1) :: v.his))
                else env
          in
          refine (refine env (a, sa) b) (b, sb) a)
  | _ -> env

(* Narrow one argument expression into [lo, hi] — the caller-side echo of
   a callee assert (asserts are compiled in; the call returning at all
   establishes the range). *)
and narrow_arg ss env ex lo hi =
  let env, v, s = eval_operand ss env ex in
  match v with
  | Int iv ->
      let los = match lo with Some l -> l :: iv.los | None -> iv.los in
      let his = match hi with Some h -> h :: iv.his | None -> iv.his in
      let env = store_slot env s (mk_iv los his) in
      let env = fact_le env lo (exact_of iv) in
      fact_le env (exact_of iv) hi
  | _ -> env

(* Evaluate a boolean expression for its refinements under the given
   branch sense. Anything unrecognised is evaluated for effects only. *)
and cond ss env (e : Typedtree.expression) bsense : env =
  if env.dead then env
  else
    match e.exp_desc with
    | Typedtree.Texp_construct (_, cd, []) when cd.Types.cstr_name = "true" ->
        if bsense then env else { env with dead = true }
    | Typedtree.Texp_construct (_, cd, []) when cd.Types.cstr_name = "false" ->
        if bsense then { env with dead = true } else env
    | Typedtree.Texp_apply
        (({ exp_desc = Typedtree.Texp_ident (path, _, vd); _ } as _f), args)
      -> (
        let argl = List.filter_map snd args in
        match (prim_name vd, argl) with
        | Some "%boolnot", [ a ] -> cond ss env a (not bsense)
        | Some "%sequand", [ a; b ] ->
            if bsense then cond ss (cond ss env a true) b true
            else
              join_env (cond ss env a false)
                (cond ss (cond ss env a true) b false)
        | Some "%sequor", [ a; b ] ->
            if bsense then
              join_env (cond ss env a true)
                (cond ss (cond ss env a false) b true)
            else cond ss (cond ss env a false) b false
        | Some p, [ a; b ] when List.mem p compare_prims ->
            let env, va, sa = eval_operand ss env a in
            let env, vb, sb = eval_operand ss env b in
            if debug_all then
              Printf.eprintf "DEBUG cond %s sense=%b int=%b a=%s b=%s\n" p
                bsense
                (is_int_type a.exp_type)
                (value_str va) (value_str vb);
            if not (is_int_type a.exp_type) then env
            else
              let rel d sw =
                let x = (va, sa) and y = (vb, sb) in
                let x, y = if sw then (y, x) else (x, y) in
                apply_rel env x d y
              in
              (match (p, bsense) with
              | "%lessthan", true | "%greaterequal", false -> rel `Lt false
              | "%greaterthan", true | "%lessequal", false -> rel `Lt true
              | "%lessequal", true | "%greaterthan", false -> rel `Le false
              | "%greaterequal", true | "%lessthan", false -> rel `Le true
              | ("%equal" | "%eq"), true | ("%notequal" | "%noteq"), false ->
                  rel `Eq false
              | _ -> rel `Ne false)
        | None, _ -> (
            match ref_target ~unit_name:ss.ss_unit ~aliases:ss.ss_aliases path with
            | Some ("Graph", "csr_valid") -> (
                match argl with
                | [ g ] -> (
                    let env, gv = eval ss env g in
                    match root_of_value gv with
                    | Some r when bsense -> seed_csr env r
                    | _ -> env)
                | _ -> fst (eval ss env e))
            | _ -> fst (eval ss env e))
        | Some p, args ->
            if debug_all then
              Printf.eprintf "DEBUG cond-skip prim=%s arity=%d\n" p
                (List.length args);
            fst (eval ss env e))
    | _ -> fst (eval ss env e)

and eval_apply ss env e (f : Typedtree.expression) args =
  let argl = List.filter_map snd args in
  let partial = List.exists (fun (_, a) -> a = None) args in
  match f.exp_desc with
  | Typedtree.Texp_ident (path, _, vd) -> (
      match prim_name vd with
      | Some p when not partial ->
          (* Licence discipline keys off the *name*, not the primitive:
             under `--profile safe` the Geacc_unsafe externals map to the
             checked primitives, and @bounds must still consume and
             re-prove their licences identically in both profiles. *)
          let licensed = is_unsafe_name (Path.last path) in
          call_prim ss env e ~licensed p argl
      | Some _ ->
          let env = List.fold_left (fun env a -> fst (eval ss env a)) env argl in
          (env, Fun)
      | None -> (
          match ref_target ~unit_name:ss.ss_unit ~aliases:ss.ss_aliases path with
          | Some (base, name) when not partial ->
              call_named ss env e (base, name) argl
          | _ ->
              let env =
                List.fold_left (fun env a -> fst (eval ss env a)) env argl
              in
              if partial then (env, Fun) else unknown_call_evaluated ss env e))
  | _ ->
      let env, _ = eval ss env f in
      let env = List.fold_left (fun env a -> fst (eval ss env a)) env argl in
      if partial then (env, Fun) else unknown_call_evaluated ss env e

(* ---------- primitives ---------- *)

and call_prim ss env e ?(licensed = false) p argl =
  let arith2 op =
    match argl with
    | [ a; b ] -> (
        let env, va = eval ss env a in
        let env, vb = eval ss env b in
        match (va, vb) with
        | Int ia, Int ib -> (env, op env ia ib)
        | _ -> (env, Top))
    | _ ->
        let env = List.fold_left (fun env a -> fst (eval ss env a)) env argl in
        (env, Top)
  in
  match p with
  | "%array_safe_get" | "%array_unsafe_get" | "%string_safe_get"
  | "%string_unsafe_get" | "%bytes_safe_get" | "%bytes_unsafe_get" -> (
      match argl with
      | [ ae; ie ] -> (
          let env, av = eval ss env ae in
          let env, iv = eval ss env ie in
          let arraylike = p = "%array_safe_get" || p = "%array_unsafe_get" in
          let unsafe =
            licensed
            || p = "%array_unsafe_get"
            || p = "%string_unsafe_get"
            || p = "%bytes_unsafe_get"
          in
          if arraylike || unsafe then
            classify_site env e.exp_loc ~unsafe av iv;
          match av with
          | Arr t when arraylike -> (
              match Hashtbl.find_opt tok_content t with
              | Some c -> (env, Int c)
              | None -> default_value env e.exp_type)
          | _ -> default_value env e.exp_type)
      | _ ->
          let env = List.fold_left (fun env a -> fst (eval ss env a)) env argl in
          default_value env e.exp_type)
  | "%array_safe_set" | "%array_unsafe_set" | "%bytes_safe_set"
  | "%bytes_unsafe_set" -> (
      match argl with
      | [ ae; ie; ve ] ->
          let env, av = eval ss env ae in
          let env, iv = eval ss env ie in
          let env, _ = eval ss env ve in
          let unsafe =
            licensed || p = "%array_unsafe_set" || p = "%bytes_unsafe_set"
          in
          classify_site env e.exp_loc ~unsafe av iv;
          (match av with Arr t -> Hashtbl.remove tok_content t | _ -> ());
          (env, Top)
      | _ ->
          let env = List.fold_left (fun env a -> fst (eval ss env a)) env argl in
          (env, Top))
  | "%array_length" -> (
      match argl with
      | [ ae ] -> (
          let env, av = eval ss env ae in
          match av with
          | Arr t ->
              let env = add_fact env (const 0) (len_aff t) in
              (env, Int (of_aff (len_aff t)))
          | _ -> default_value env e.exp_type)
      | _ -> (env, Top))
  | "caml_make_vect" | "caml_make_float_vect" | "caml_array_make" -> (
      match argl with
      | ne :: rest -> (
          let env, nv = eval ss env ne in
          let env =
            List.fold_left (fun env a -> fst (eval ss env a)) env rest
          in
          let t, env = fresh_tok env in
          match nv with
          | Int iv ->
              let env =
                List.fold_left
                  (fun env l -> add_fact env l (len_aff t))
                  env iv.los
              in
              let env =
                List.fold_left
                  (fun env h -> add_fact env (len_aff t) h)
                  env iv.his
              in
              (env, Arr t)
          | _ -> (env, Arr t))
      | [] -> (env, Top))
  | "%makemutable" -> (
      match argl with
      | [ ie ] ->
          let env, v = eval ss env ie in
          (env, RefVal v)
      | _ -> (env, Top))
  | "%field0" -> (
      match argl with
      | [ re ] -> (
          let env, rv = eval ss env re in
          match rv with
          | RefCell r -> (
              match SMap.find_opt r env.refs with
              | Some v -> (env, v)
              | None ->
                  let env, v = default_value env e.exp_type in
                  ({ env with refs = SMap.add r v env.refs }, v))
          | RefVal v -> (env, v)
          | _ -> default_value env e.exp_type)
      | _ -> (env, Top))
  | "%setfield0" -> (
      match argl with
      | [ re; ve ] -> (
          let env, rv = eval ss env re in
          let env, v = eval ss env ve in
          match rv with
          | RefCell r -> ({ env with refs = SMap.add r v env.refs }, Top)
          | _ -> (env, Top))
      | _ -> (env, Top))
  | "%incr" | "%decr" -> (
      match argl with
      | [ re ] -> (
          let env, rv = eval ss env re in
          match rv with
          | RefCell r -> (
              let d = if p = "%incr" then 1 else -1 in
              match SMap.find_opt r env.refs with
              | Some (Int iv) ->
                  ( { env with refs = SMap.add r (Int (iv_shift iv d)) env.refs },
                    Top )
              | _ -> ({ env with refs = SMap.add r Top env.refs }, Top))
          | _ -> (env, Top))
      | _ -> (env, Top))
  | "%addint" -> arith2 (fun _ a b -> Int (iv_add a b))
  | "%subint" -> arith2 (fun _ a b -> Int (iv_sub a b))
  | "%succint" -> (
      match argl with
      | [ a ] -> (
          let env, va = eval ss env a in
          match va with Int iv -> (env, Int (iv_shift iv 1)) | _ -> (env, Top))
      | _ -> (env, Top))
  | "%predint" -> (
      match argl with
      | [ a ] -> (
          let env, va = eval ss env a in
          match va with
          | Int iv -> (env, Int (iv_shift iv (-1)))
          | _ -> (env, Top))
      | _ -> (env, Top))
  | "%negint" -> (
      match argl with
      | [ a ] -> (
          let env, va = eval ss env a in
          match va with Int iv -> (env, Int (iv_neg iv)) | _ -> (env, Top))
      | _ -> (env, Top))
  | "%mulint" ->
      arith2 (fun _ a b ->
          match (exact_of a, exact_of b) with
          | Some x, _ when is_const x -> Int (iv_mul_const b x.c)
          | _, Some y when is_const y -> Int (iv_mul_const a y.c)
          | _ -> Top)
  | "%divint" ->
      (* Only the nonneg-by-positive-constant case: 0 <= a/d <= max a. *)
      arith2 (fun env a b ->
          match exact_of b with
          | Some d when is_const d && d.c >= 1 && iv_ge env.facts a 0 ->
              Int (mk_iv [ const 0 ] a.his)
          | _ -> Top)
  | "%modint" ->
      arith2 (fun env a b ->
          match exact_of b with
          | Some d when is_const d && d.c >= 1 && iv_ge env.facts a 0 ->
              Int (mk_iv [ const 0 ] [ const (d.c - 1) ])
          | _ -> Top)
  | "%apply" -> (
      match argl with
      | [ fe; xe ] -> eval_apply ss env e fe [ (Asttypes.Nolabel, Some xe) ]
      | _ -> (env, Top))
  | "%revapply" -> (
      match argl with
      | [ xe; fe ] -> eval_apply ss env e fe [ (Asttypes.Nolabel, Some xe) ]
      | _ -> (env, Top))
  | "%identity" | "%opaque" -> (
      match argl with
      | [ a ] -> eval ss env a
      | _ -> (env, Top))
  | "%ignore" ->
      let env = List.fold_left (fun env a -> fst (eval ss env a)) env argl in
      (env, Top)
  | "%raise" | "%reraise" | "%raise_notrace" ->
      let env = List.fold_left (fun env a -> fst (eval ss env a)) env argl in
      ({ env with dead = true }, Top)
  | _ ->
      (* Unknown primitive: evaluate, be pessimistic about array contents
         (caml_array_blit and friends mutate elements in place), return by
         type. Primitives never touch our record snapshots. *)
      let env, avs = eval_list ss env argl in
      List.iter
        (fun v -> match v with Arr t -> Hashtbl.remove tok_content t | _ -> ())
        avs;
      default_value env e.exp_type

(* ---------- named calls: models, stdlib, unknown ---------- *)

and call_named ss env e (base, name) argl =
  (* Contract-licence discipline for unsafe_* calls. The csr slice
     accessors get a sharper, csr-aware check in the Graph model. *)
  let is_csr_accessor =
    String.length name >= 11 && String.sub name 0 11 = "unsafe_csr_"
  in
  if is_unsafe_name name && not is_csr_accessor then begin
    let file = e.exp_loc.Location.loc_start.Lexing.pos_fname in
    match licence_at e.exp_loc with
    | L_none ->
        report e.exp_loc "bounds-unlicensed"
          (Printf.sprintf
             "call to %s without a `bounds: proved — <contract>` licence" name)
    | L_bare ->
        report e.exp_loc "bounds-unlicensed"
          (Printf.sprintf "call to %s under a bare licence (no contract stated)"
             name)
    | L_reasoned -> count file true
  end;
  match base with
  | "Graph" -> (
      match graph_model ss env e name argl with
      | Some r -> r
      | None -> unknown_call ss env e argl)
  | "Int_bucket_queue" -> (
      match bucket_model ss env e name argl with
      | Some r -> r
      | None -> unknown_call ss env e argl)
  | "Point" when name = "dim" -> (
      match argl with
      | [ pe ] -> (
          let env, pv = eval ss env pe in
          match pv with
          | Arr t ->
              let env = add_fact env (const 0) (len_aff t) in
              (env, Int (of_aff (len_aff t)))
          | _ -> default_value env e.exp_type)
      | _ -> unknown_call ss env e argl)
  | _ when List.mem base stdlib_units ->
      if List.mem name noreturn_names then begin
        let env, _ = eval_list ss env argl in
        ({ env with dead = true }, Top)
      end
      else stdlib_generic ss env e argl
  | _ when List.mem name noreturn_names ->
      let env, _ = eval_list ss env argl in
      ({ env with dead = true }, Top)
  | _ -> unknown_call ss env e argl

(* A stdlib call never captures our records: it may mutate what it was
   handed (havoc Root args, drop array content claims, forget ref-cell
   contents) but the rest of the world survives. A function argument can
   call back into anything — full havoc. *)
and stdlib_generic ss env e argl =
  let env, avs = eval_list ss env argl in
  let env =
    List.fold_left
      (fun env v ->
        match v with
        | Root r -> havoc_root env r
        | Arr t ->
            Hashtbl.remove tok_content t;
            env
        | RefCell r -> { env with refs = SMap.remove r env.refs }
        | _ -> env)
      env avs
  in
  let env = if List.exists (fun v -> v = Fun) avs then full_havoc env else env in
  default_value env e.exp_type

and unknown_call ss env e argl =
  let env, _ = eval_list ss env argl in
  unknown_call_evaluated ss env e

and unknown_call_evaluated _ss env (e : Typedtree.expression) =
  let env = full_havoc env in
  default_value env e.exp_type

(* ---------- the Graph model ---------- *)

(* Caller-side summaries of Geacc_flow.Graph. The narrowings echo the
   callee's own asserts (check_arc / check_pos / the out_begin asserts);
   push/reset_flow/unsafe_set_residual_capacity are benign: they touch
   only capacity cells, never the counts or the field bindings. *)
and graph_model ss env e name argl =
  let ret_default env = Some (default_value env e.exp_type) in
  let with_root k =
    match argl with
    | ge :: rest -> (
        let env, gv = eval ss env ge in
        match root_of_value gv with
        | Some r -> k env r rest
        | None ->
            let env =
              List.fold_left (fun env a -> fst (eval ss env a)) env rest
            in
            ret_default env)
    | [] -> ret_default env
  in
  let counts env r =
    let env = materialize_graph env r in
    let env, nv = get_path env r "num_nodes" ~mut:false `Int in
    let env, cv = get_path env r "count" ~mut:true `Int in
    (env, exact_int nv, exact_int cv)
  in
  let pred = Option.map (fun x -> aff_shift x (-1)) in
  let narrow1 env rest lo hi =
    match rest with
    | a :: more ->
        let env = narrow_arg ss env a lo hi in
        List.fold_left (fun env x -> fst (eval ss env x)) env more
    | [] -> env
  in
  let clear_content env r fields =
    List.iter
      (fun f ->
        match SMap.find_opt (r ^ "#" ^ f) env.paths with
        | Some (Arr t, _) -> Hashtbl.remove tok_content t
        | _ -> ())
      fields
  in
  let bounds lo hi = Int (mk_iv (Option.to_list lo) (Option.to_list hi)) in
  match name with
  | "create" ->
      let env, avs = eval_list ss env argl in
      let r = fresh_root () in
      let env =
        match avs with
        | (Int _ as nv) :: _ ->
            {
              env with
              paths =
                SMap.add (r ^ "#count")
                  (Int (iv_int 0), true)
                  (SMap.add (r ^ "#num_nodes") (nv, false) env.paths);
            }
        | _ -> env
      in
      Some (env, Root r)
  | "node_count" ->
      with_root (fun env r rest ->
          let env = materialize_graph env r in
          let env, nv = get_path env r "num_nodes" ~mut:false `Int in
          let env =
            List.fold_left (fun env x -> fst (eval ss env x)) env rest
          in
          Some (env, nv))
  | "arc_count" ->
      with_root (fun env r rest ->
          let env = materialize_graph env r in
          let env, cv = get_path env r "count" ~mut:true `Int in
          let env =
            List.fold_left (fun env x -> fst (eval ss env x)) env rest
          in
          Some (env, cv))
  | "check_arc" ->
      with_root (fun env r rest ->
          let env, _, c = counts env r in
          Some (narrow1 env rest (Some (const 0)) (pred c), Top))
  | "check_pos" ->
      with_root (fun env r rest ->
          let env = seed_csr env r in
          let env, _, c = counts env r in
          Some (narrow1 env rest (Some (const 0)) (pred c), Top))
  | "partner" -> (
      (* partner a = a lxor 1: pairs 2k <-> 2k+1, so any [0, count) range
         is preserved (documented pairing assumption, see DESIGN.md §13). *)
      match argl with
      | [ a ] ->
          let env, va = eval ss env a in
          Some (env, va)
      | _ -> None)
  | "dst" | "src" ->
      with_root (fun env r rest ->
          let env, n, c = counts env r in
          let env = narrow1 env rest (Some (const 0)) (pred c) in
          Some (env, bounds (Some (const 0)) (pred n)))
  | "icost" ->
      with_root (fun env r rest ->
          let env, _, c = counts env r in
          let env = narrow1 env rest (Some (const 0)) (pred c) in
          ret_default env)
  | "residual_capacity" | "initial_capacity" | "flow" ->
      with_root (fun env r rest ->
          let env, _, c = counts env r in
          let env = narrow1 env rest (Some (const 0)) (pred c) in
          ret_default env)
  | "excess" ->
      with_root (fun env r rest ->
          let env, n, _ = counts env r in
          let env = narrow1 env rest (Some (const 0)) (pred n) in
          ret_default env)
  | "csr_valid" ->
      with_root (fun env r rest ->
          let env = materialize_graph env r in
          ignore r;
          let env =
            List.fold_left (fun env x -> fst (eval ss env x)) env rest
          in
          Some (env, Top))
  | "push" | "unsafe_set_residual_capacity" ->
      with_root (fun env r rest ->
          let env, _, c = counts env r in
          let env = narrow1 env rest (Some (const 0)) (pred c) in
          clear_content env r [ "cap_"; "csr_cap" ];
          Some (env, Top))
  | "reset_flow" ->
      with_root (fun env r rest ->
          let env =
            List.fold_left (fun env x -> fst (eval ss env x)) env rest
          in
          clear_content env r [ "cap_"; "csr_cap" ];
          Some (env, Top))
  | "add_arc" | "add_half" ->
      with_root (fun env r rest ->
          let env =
            List.fold_left (fun env x -> fst (eval ss env x)) env rest
          in
          ret_default (havoc_root env r))
  | "reserve" | "ensure_capacity" ->
      with_root (fun env r rest ->
          let env =
            List.fold_left (fun env x -> fst (eval ss env x)) env rest
          in
          Some (havoc_root env r, Top))
  | "finalize_csr" ->
      with_root (fun env r rest ->
          let env =
            List.fold_left (fun env x -> fst (eval ss env x)) env rest
          in
          Some (seed_csr (havoc_root env r) r, Top))
  | "out_begin" | "out_end" ->
      with_root (fun env r rest ->
          let env = seed_csr env r in
          let env, n, c = counts env r in
          let env = narrow1 env rest (Some (const 0)) (pred n) in
          Some (env, bounds (Some (const 0)) c))
  | "pos_dst" ->
      with_root (fun env r rest ->
          let env = seed_csr env r in
          let env, n, c = counts env r in
          let env = narrow1 env rest (Some (const 0)) (pred c) in
          Some (env, bounds (Some (const 0)) (pred n)))
  | "pos_icost" | "pos_residual_capacity" ->
      with_root (fun env r rest ->
          let env = seed_csr env r in
          let env, _, c = counts env r in
          let env = narrow1 env rest (Some (const 0)) (pred c) in
          ret_default env)
  | "pos_arc" | "arc_position" ->
      with_root (fun env r rest ->
          let env = seed_csr env r in
          let env, _, c = counts env r in
          let env = narrow1 env rest (Some (const 0)) (pred c) in
          Some (env, bounds (Some (const 0)) (pred c)))
  | "unsafe_csr_dst" | "unsafe_csr_icost" | "unsafe_csr_cap" | "unsafe_csr_arc"
    ->
      with_root (fun env r rest ->
          (* The licence must hold *at the call*: the caller owes the
             analyzer an established csr_valid (finalize_csr or a guard)
             on this root. The callee's own assert then re-seeds. *)
          let file = e.exp_loc.Location.loc_start.Lexing.pos_fname in
          (match licence_at e.exp_loc with
          | L_none ->
              report e.exp_loc "bounds-unlicensed"
                (Printf.sprintf
                   "call to Graph.%s without a `bounds: proved — <reason>` \
                    licence"
                   name)
          | L_bare ->
              report e.exp_loc "bounds-unlicensed"
                (Printf.sprintf
                   "call to Graph.%s under a bare licence (no reason stated)"
                   name)
          | L_reasoned ->
              if csr_known env r then count file true
              else
                report e.exp_loc "bounds-unproved"
                  (Printf.sprintf
                     "stale licence: csr_valid not established for this graph \
                      before Graph.%s"
                     name));
          let env = seed_csr env r in
          let field = String.sub name 7 (String.length name - 7) in
          let env, v = get_path env r field ~mut:true `Arr in
          let env =
            List.fold_left (fun env x -> fst (eval ss env x)) env rest
          in
          Some (env, v))
  | "iter_out_arcs" | "fold_forward_arcs" ->
      with_root (fun env _r rest ->
          let env =
            List.fold_left (fun env x -> fst (eval ss env x)) env rest
          in
          ret_default (full_havoc env))
  | _ -> None

(* ---------- the Int_bucket_queue model ---------- *)

(* Caller-side (and intra-module helper-call) summaries of the radix
   bucket queue. The mutators havoc only the queue root — CSR claims on
   other roots survive the Dijkstra pop/push cycle, which is the whole
   point: the integer kernel must not lose its licences to the queue.
   [bucket_index] is pure and its result lies in [0, 64), the documented
   msb bound the 64-slot columns of [materialize_bucket] are sized for. *)
and bucket_model ss env e name argl =
  let ret_default env = Some (default_value env e.exp_type) in
  let with_root k =
    match argl with
    | te :: rest -> (
        let env, tv = eval ss env te in
        let env =
          List.fold_left (fun env a -> fst (eval ss env a)) env rest
        in
        match root_of_value tv with
        | Some r -> k env r
        | None -> ret_default env)
    | [] -> ret_default env
  in
  match name with
  | "create" ->
      let env, _ = eval_list ss env argl in
      Some (env, Root (fresh_root ()))
  | "bucket_index" ->
      let env, _ = eval_list ss env argl in
      Some (env, Int (mk_iv [ const 0 ] [ const 63 ]))
  | "push" | "drop_min" | "clear" | "append" | "ensure_min" ->
      with_root (fun env r -> Some (havoc_root env r, Top))
  | "pop" -> with_root (fun env r -> ret_default (havoc_root env r))
  | "length" ->
      with_root (fun env r ->
          let env = materialize_bucket env r in
          let env, sv = get_path env r "size" ~mut:true `Int in
          Some (env, sv))
  | "is_empty" | "check_invariant" -> with_root (fun env _r -> Some (env, Top))
  | "min_key" | "min_payload" -> with_root (fun env r -> ret_default (havoc_root env r))
  | _ -> None

(* ---------- loops ---------- *)

(* The loop fixpoint. Every Int-valued ref is re-bound at the loop head to
   a fresh exact symbol constrained by candidate bounds; exactness keeps
   derived quantities (at, 2*at+1, 2*at+2) correlated affines over the
   same symbol, which the narrowing facts then relate to the seeds.
   Candidates must hold at entry (so zero-iteration paths stay sound) and
   are verified to be re-established at the end of every body run; paths /
   csr claims survive only if stable through the body. The body is
   re-analyzed silently until the candidate set converges, then once more
   with reporting on. *)
and loop_fix _ss env0 ~entry_facts ?(exclude = -1) run_body =
  let saved = !reporting in
  reporting := false;
  let mark = !sym_counter in
  let aff_stable a = is_const a || (a.s <= mark && a.s <> exclude) in
  let pool =
    let add _ v acc =
      match exact_int v with
      | Some a
        when aff_stable a
             && (not (List.exists (fun x -> x = a) acc))
             && List.length acc < 24 ->
          a :: acc
      | _ -> acc
    in
    let acc = SMap.fold add env0.vars [] in
    let acc = SMap.fold add env0.refs acc in
    SMap.fold (fun k (v, _) acc -> add k v acc) env0.paths acc
  in
  let init_cands v =
    match v with
    | Int iv ->
        let los0 = List.filter aff_stable iv.los in
        let his0 = List.filter aff_stable iv.his in
        let los0 =
          if
            List.exists (fun l -> le entry_facts (const 0) l) iv.los
            && not (List.exists (fun l -> l = const 0) los0)
          then const 0 :: los0
          else los0
        in
        let his0 =
          List.fold_left
            (fun acc a ->
              let try_add acc cand =
                if
                  List.exists (fun h -> le entry_facts h cand) iv.his
                  && not (List.exists (fun x -> x = cand) acc)
                then cand :: acc
                else acc
              in
              try_add (try_add acc a) (aff_shift a (-1)))
            his0 pool
        in
        Some (los0, his0)
    | _ -> None
  in
  let cands = ref (SMap.filter_map (fun _ v -> init_cands v) env0.refs) in
  let nonint =
    SMap.filter (fun _ v -> match v with Int _ -> false | _ -> true) env0.refs
  in
  let unstable = ref SMap.empty in
  let kept_paths = ref (SMap.map (fun _ -> ()) env0.paths) in
  let kept_csr = ref env0.csr in
  let build_head () =
    let env =
      {
        env0 with
        paths = SMap.filter (fun k _ -> SMap.mem k !kept_paths) env0.paths;
        csr = !kept_csr;
      }
    in
    let env =
      SMap.fold
        (fun r (los, his) env ->
          let s = sym (fresh_sym ()) in
          let env = { env with refs = SMap.add r (Int (of_aff s)) env.refs } in
          let env = List.fold_left (fun env l -> add_fact env l s) env los in
          List.fold_left (fun env h -> add_fact env s h) env his)
        !cands env
    in
    SMap.fold
      (fun r v env ->
        let v = if SMap.mem r !unstable then Top else v in
        { env with refs = SMap.add r v env.refs })
      nonint env
  in
  let changed = ref true in
  let rounds = ref 0 in
  let head = ref (build_head ()) in
  while !changed && !rounds < 12 do
    incr rounds;
    changed := false;
    let h = !head in
    let e = run_body h in
    if not e.dead then begin
      cands :=
        SMap.mapi
          (fun r (los, his) ->
            match SMap.find_opt r e.refs with
            | Some (Int iv) ->
                let los' = List.filter (fun l -> iv_ge_aff e.facts iv l) los in
                let his' = List.filter (fun h -> iv_le_aff e.facts iv h) his in
                if
                  List.length los' <> List.length los
                  || List.length his' <> List.length his
                then changed := true;
                (los', his')
            | _ ->
                if los <> [] || his <> [] then changed := true;
                ([], []))
          !cands;
      SMap.iter
        (fun r v ->
          if not (SMap.mem r !unstable) then
            let hv =
              match SMap.find_opt r h.refs with Some v' -> v' | None -> v
            in
            match SMap.find_opt r e.refs with
            | Some ev when value_stable hv ev -> ()
            | _ ->
                unstable := SMap.add r () !unstable;
                changed := true)
        nonint;
      kept_paths :=
        SMap.filter
          (fun k () ->
            match SMap.find_opt k env0.paths with
            | Some (_, false) -> true
            | Some (hv0, true) -> (
                let hv =
                  match SMap.find_opt k h.paths with
                  | Some (v, _) -> v
                  | None -> hv0
                in
                match SMap.find_opt k e.paths with
                | Some (ev, _) ->
                    if value_stable hv ev then true
                    else begin
                      changed := true;
                      false
                    end
                | None ->
                    changed := true;
                    false)
            | None -> false)
          !kept_paths;
      let csr' = SMap.filter (fun r () -> SMap.mem r e.csr) !kept_csr in
      if SMap.cardinal csr' <> SMap.cardinal !kept_csr then changed := true;
      kept_csr := csr'
    end;
    if !changed then head := build_head ()
  done;
  reporting := saved;
  let h = !head in
  ignore (run_body h);
  h

and while_fix ss env guard body =
  let head =
    loop_fix ss env ~entry_facts:env.facts (fun h ->
        let h = cond ss h guard true in
        fst (eval ss h body))
  in
  (cond ss head guard false, Top)

and for_fix ss env id lo hi dir body =
  let env, lov = eval ss env lo in
  let env, hiv = eval ss env hi in
  let entry_facts = env.facts in
  let s = sym (fresh_sym ()) in
  let lob, hib =
    match dir with
    | Asttypes.Upto -> (lov, hiv)
    | Asttypes.Downto -> (hiv, lov)
  in
  let benv = bind_name env (Ident.name id) (Int (of_aff s)) in
  let benv =
    match lob with
    | Int iv -> List.fold_left (fun e' l -> add_fact e' l s) benv iv.los
    | _ -> benv
  in
  let benv =
    match hib with
    | Int iv -> List.fold_left (fun e' h -> add_fact e' s h) benv iv.his
    | _ -> benv
  in
  let head =
    loop_fix ss benv ~entry_facts ~exclude:s.s (fun h -> fst (eval ss h body))
  in
  (* The loop-variable range holds only if the loop ran: strip it from the
     exit environment (zero-iteration soundness). *)
  let strip =
    List.filter (fun (a, b) ->
        not ((a.k <> 0 && a.s = s.s) || (b.k <> 0 && b.s = s.s)))
  in
  ({ head with facts = strip head.facts }, Top)

(* ---------- structure scan ---------- *)

let report_file path rule message =
  diags :=
    { Lint_core.file = path; line = 1; col = 0; rule; message } :: !diags

let register_module ss (mb : Typedtree.module_binding) =
  match (mb.mb_id, mb.mb_expr.mod_desc) with
  | Some id, Typedtree.Tmod_ident (p, _) ->
      Hashtbl.replace ss.ss_aliases (Ident.name id) (norm_unit (Path.last p))
  | _ -> ()

let rec scan_structure ss (str : Typedtree.structure) =
  (* Module aliases first, so forward references resolve. *)
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_module mb -> register_module ss mb
      | Typedtree.Tstr_recmodule mbs -> List.iter (register_module ss) mbs
      | _ -> ())
    str.str_items;
  List.iter (scan_item ss) str.str_items

and scan_item ss (item : Typedtree.structure_item) =
  match item.str_desc with
  | Typedtree.Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          (match vb.vb_pat.pat_desc with
          | Typedtree.Tpat_var (id, _) when is_unsafe_name (Ident.name id) -> (
              match licence_at vb.vb_pat.pat_loc with
              | L_reasoned -> ()
              | L_bare | L_none ->
                  report vb.vb_pat.pat_loc "bounds-unsafe-def"
                    (Printf.sprintf
                       "definition of %s needs a `bounds: proved — <contract>` \
                        licence stating what callers owe"
                       (Ident.name id)))
          | _ -> ());
          try ignore (eval ss empty_env vb.vb_expr)
          with exn ->
            report vb.vb_loc "cmt-error"
              (Printf.sprintf "analysis failed: %s" (Printexc.to_string exn)))
        vbs
  | Typedtree.Tstr_eval (e, _) -> (
      try ignore (eval ss empty_env e)
      with exn ->
        report e.exp_loc "cmt-error"
          (Printf.sprintf "analysis failed: %s" (Printexc.to_string exn)))
  | Typedtree.Tstr_module mb -> scan_module ss mb
  | Typedtree.Tstr_recmodule mbs -> List.iter (scan_module ss) mbs
  | _ -> ()

and scan_module ss (mb : Typedtree.module_binding) =
  match mb.mb_expr.mod_desc with
  | Typedtree.Tmod_structure str -> scan_structure ss str
  | Typedtree.Tmod_constraint (me, _, _, _) -> (
      match me.mod_desc with
      | Typedtree.Tmod_structure str -> scan_structure ss str
      | _ -> ())
  | _ -> ()

let scan_cmt path =
  match Cmt_format.read_cmt path with
  | exception exn ->
      report_file path "cmt-error"
        (Printf.sprintf "cannot read cmt: %s" (Printexc.to_string exn))
  | cmt -> (
      match cmt.Cmt_format.cmt_sourcefile with
      | Some src when analyzed src -> (
          Hashtbl.replace seen_files src ();
          match cmt.Cmt_format.cmt_annots with
          | Cmt_format.Implementation str ->
              let ss =
                {
                  ss_unit = norm_unit cmt.Cmt_format.cmt_modname;
                  ss_aliases = Hashtbl.create 8;
                }
              in
              scan_structure ss str
          | _ -> ())
      | _ -> ())

(* ---------- driver ---------- *)

let () =
  let format, roots =
    Lint_core.parse_argv ~tool:"geacc_bounds" ~rules Sys.argv
  in
  let files =
    List.concat_map
      (fun r -> Lint_core.walk ~skip_dir:(fun d -> String.equal d ".git") r [])
      roots
  in
  let cmts =
    List.sort_uniq String.compare
      (List.filter (fun f -> Filename.check_suffix f ".cmt") files)
  in
  List.iter scan_cmt cmts;
  (* Orphan licences: a `bounds: proved` line no unsafe site consumed. *)
  Hashtbl.iter
    (fun src () ->
      Array.iteri
        (fun i line ->
          if
            Lint_core.contains_marker line licence_marker
            && not (Hashtbl.mem consumed (src, i + 1))
          then
            diags :=
              {
                Lint_core.file = src;
                line = i + 1;
                col = 0;
                rule = "bounds-orphan-licence";
                message =
                  "licence justifies no unsafe site (stale or misplaced)";
              }
              :: !diags)
        (source_lines src))
    seen_files;
  if Sys.getenv_opt "GEACC_BOUNDS_SUMMARY" = Some "1" then begin
    let entries = Hashtbl.fold (fun f c acc -> (f, c) :: acc) counters [] in
    List.iter
      (fun (f, c) ->
        Printf.eprintf "%s: %d proved, %d unknown\n" f c.proved c.unknown)
      (List.sort compare entries)
  end;
  let uniq = List.sort_uniq compare !diags in
  exit (Lint_core.emit ~format ~tool:"geacc_bounds" uniq)
