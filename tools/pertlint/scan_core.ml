(* scan_core — pertlint's whole-program domain-safety & determinism
   family: S1 (shared-mutable escapes into Parallel tasks), S2
   (determinism taint), S3 (unused exports) and S5 (snapshot-invisible
   state).  The rules and their suppression sites are documented in
   pertlint.ml's header; S4 (stale suppressions) lives in Lint_core and
   runs after every family.

   Where the expression-local rules look at one expression at a time,
   this family sees every .cmt (and .cmti) in scope at once: it builds a
   cross-module mention/call graph plus two value-flow pools (record
   fields holding functions, and function arguments forwarded into the
   Parallel pool) and runs its analyses over them.

   Soundness caveats (see DESIGN.md "Whole-program analysis"): the
   analysis is name-based across modules (no Env reconstruction), does
   not see through first-class modules or functors, treats every function
   stored in a same-named record field alike, models [Mutex] guarding
   only in its scoped forms ([Mutex.protect], [Parallel.Guard.with_]) and
   trusts lib/parallel (the audited pool, rule P1) wholesale. *)

open Lint_core
open Scan_graph

(* Name normalisation, alias resolution, path classification and the
   per-unit prepass live in Scan_graph, shared with Alloc_core. *)

(* ---------- per-unit extraction ---------- *)

type mention = {
  m_ref : gref;
  m_loc : Location.t;
  m_guarded : bool;  (** inside Mutex.protect / Parallel.Guard.with_ *)
}

type capture = {
  c_id : Ident.t;
  c_name : string;
  c_loc : Location.t;  (** a use inside the closure *)
  c_ty : Types.type_expr;
  c_guarded : bool;  (** every use inside the closure is guarded *)
}

(* What a closure (or a function body) can reach, as far as this family
   can see: global values it mentions, record fields of function type it
   calls through, and the enclosing-scope variables it captures. *)
type closure_info = {
  cl_loc : Location.t;
  cl_mentions : mention list;
  cl_fields : string list;
  cl_captures : capture list;
}

type task =
  | T_closure of closure_info
  | T_global of gref * Location.t
  | T_param of Ident.t * Location.t  (** a function-typed local escapes *)

type submission = {
  s_owner : gref option;  (** enclosing toplevel value *)
  s_callee : gref;  (** Parallel.submit / map / submit_supervised *)
  s_loc : Location.t;
  s_scope : allow_entry list;
  s_tasks : task list;
}

type callsite = {
  cs_owner : gref option;
  cs_callee : gref;
  cs_loc : Location.t;
  cs_scope : allow_entry list;
  cs_tasks : task list;  (** function-valued arguments *)
}

type mutable_def = {
  md_ref : gref;
  md_loc : Location.t;
  md_kind : string;  (** "Hashtbl.t", "ref", ... *)
}

type value_info = {
  vi_ref : gref;
  vi_loc : Location.t;
  vi_mentions : mention list;
  vi_fields : string list;  (** function-typed record fields called *)
  vi_body : Typedtree.expression option;  (** for the taint pass *)
  vi_attrs : Typedtree.attributes;
}

type unit_info = {
  ui_unit : loaded;
  ui_ctx : unit_ctx;
  ui_mod : string;  (** normalised unit module name *)
  ui_in_parallel : bool;
  mutable ui_values : value_info list;
  mutable ui_mutables : mutable_def list;
  mutable ui_rogue_rngs : gref list;  (** toplevel Rng.create/split *)
  mutable ui_submissions : submission list;
  mutable ui_callsites : callsite list;
  mutable ui_local_lambdas : (Ident.t * closure_info) list;
  mutable ui_def_locs : (Ident.t * Location.t) list;
}

type export = {
  e_unit : string;  (** normalised unit of the .mli *)
  e_qual : string;  (** module basename uses are qualified with *)
  e_name : string;
  e_loc : Location.t;
  e_scope : allow_entry list;
}

(* ---------- global state ---------- *)

let units : unit_info list ref = ref []
let exports : export list ref = ref []

(* (qualifier, name) -> set of using units (normalised). *)
let uses : (gref, (string, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 512

(* record label -> function values stored into a same-named field. *)
let field_pools : (string, (gref, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64

(* project-wide registry of nominal record types with mutable fields,
   keyed (normalised module, type name). *)
let mutable_records : (gref, unit) Hashtbl.t = Hashtbl.create 64

let add_use ~from r =
  let tbl =
    match Hashtbl.find_opt uses r with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 4 in
        Hashtbl.replace uses r t;
        t
  in
  Hashtbl.replace tbl from ()

let add_field_store label r =
  let tbl =
    match Hashtbl.find_opt field_pools label with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 4 in
        Hashtbl.replace field_pools label t;
        t
  in
  Hashtbl.replace tbl r ()

(* ---------- type predicates ---------- *)

let mutable_builtin_tys =
  [
    ("Stdlib.ref", "ref");
    ("ref", "ref");
    ("Stdlib.Hashtbl.t", "Hashtbl.t");
    ("Hashtbl.t", "Hashtbl.t");
    ("Stdlib.Buffer.t", "Buffer.t");
    ("Buffer.t", "Buffer.t");
    ("Stdlib.Queue.t", "Queue.t");
    ("Queue.t", "Queue.t");
    ("Stdlib.Stack.t", "Stack.t");
    ("Stack.t", "Stack.t");
  ]

(* The kind of shared-mutable a type is, or None.  Nominal records are
   looked up in [mutable_records] (filled by a prepass over every unit's
   type declarations), so cross-module mutable records are seen without
   Env reconstruction. *)
let mutable_ty_kind ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> (
      if Path.same p Predef.path_array then Some "array"
      else if Path.same p Predef.path_bytes then Some "bytes"
      else
        let name = Path.name p in
        match List.assoc_opt name mutable_builtin_tys with
        | Some k -> Some k
        | None -> (
            let comps = String.split_on_char '.' name in
            match List.rev comps with
            | v :: m :: _ when Hashtbl.mem mutable_records (norm_mod m, v) ->
                Some "mutable record"
            | [ v ] when Hashtbl.mem mutable_records (norm_mod "", v) ->
                Some "mutable record"
            | _ -> None))
  | _ -> None

(* ---------- interesting names ---------- *)

let parallel_entry (q, v) =
  q = "Parallel" && List.mem v [ "submit"; "map"; "submit_supervised" ]

let guard_combinator (q, v) =
  (q = "Guard" && v = "with_") || (q = "Mutex" && v = "protect")

let hashtbl_order_source (q, v) =
  q = "Hashtbl"
  && List.mem v [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let float_repr_source (q, v) =
  (q = "Stdlib" && v = "string_of_float") || (q = "Float" && v = "to_string")

let physical_eq (q, v) = q = "Stdlib" && (v = "==" || v = "!=")

let sort_sanitizer (q, v) =
  (q = "List" && List.mem v [ "sort"; "stable_sort"; "fast_sort"; "sort_uniq" ])
  || (q = "Array" && List.mem v [ "sort"; "stable_sort" ])

let sink_fn (q, v) =
  (q = "Output"
  && List.mem v
       [ "print"; "print_all"; "to_csv"; "to_gnuplot"; "cell_f"; "cell_e"; "cell_i" ])
  || (q = "Store" && List.mem v [ "put"; "write_atomic" ])
  || (q = "Tracer" && List.mem v [ "to_string"; "save" ])

let rng_mod q = q = "Rng"

(* An immediate type can never differ physically between equal values. *)
let is_immediate_ty ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) ->
      Path.same p Predef.path_int
      || Path.same p Predef.path_bool
      || Path.same p Predef.path_char
      || Path.same p Predef.path_unit
  | Tvariant _ -> false
  | _ -> false

(* ---------- generic expression walker ----------

   One Tast_iterator drives every structural pass; hooks receive each
   identifier use (with the ambient guard depth), each application and
   each record construction.  Guard combinators recurse into their
   function argument with the guard depth raised. *)

type walk_hooks = {
  on_ident : idkind -> Types.type_expr -> Location.t -> guarded:bool -> unit;
  on_apply :
    idkind option ->
    Typedtree.expression ->
    (Asttypes.arg_label * Typedtree.expression option) list ->
    guarded:bool ->
    unit;
  on_field_use : string -> Types.type_expr -> unit;
  on_record : (Types.label_description * Typedtree.record_label_definition) array -> unit;
}

let null_hooks =
  {
    on_ident = (fun _ _ _ ~guarded:_ -> ());
    on_apply = (fun _ _ _ ~guarded:_ -> ());
    on_field_use = (fun _ _ -> ());
    on_record = (fun _ -> ());
  }

let walk_expr ctx hooks (e0 : Typedtree.expression) =
  let guard_depth = ref 0 in
  let iter = ref Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    with_allows e.exp_attributes (fun () ->
        match e.exp_desc with
        | Texp_ident (p, _, _) ->
            hooks.on_ident (classify_path ctx p) e.exp_type e.exp_loc
              ~guarded:(!guard_depth > 0)
        | Texp_apply (head, args) ->
            let head_kind =
              match head.exp_desc with
              | Texp_ident (p, _, _) -> Some (classify_path ctx p)
              | _ -> None
            in
            hooks.on_apply head_kind head args ~guarded:(!guard_depth > 0);
            let is_guard =
              match head_kind with
              | Some (G r) -> guard_combinator r
              | _ -> false
            in
            sub.Tast_iterator.expr sub head;
            List.iter
              (fun (_, a) ->
                match a with
                | None -> ()
                | Some a ->
                    if is_guard then begin
                      incr guard_depth;
                      Fun.protect
                        ~finally:(fun () -> decr guard_depth)
                        (fun () -> sub.Tast_iterator.expr sub a)
                    end
                    else sub.Tast_iterator.expr sub a)
              args
        | Texp_field (_, _, lbl) ->
            hooks.on_field_use lbl.lbl_name lbl.lbl_arg;
            Tast_iterator.(default_iterator.expr) sub e
        | Texp_record { fields; _ } ->
            hooks.on_record fields;
            Tast_iterator.(default_iterator.expr) sub e
        | _ -> Tast_iterator.(default_iterator.expr) sub e)
  in
  iter := { Tast_iterator.default_iterator with expr };
  (!iter).expr !iter e0

(* Analyse a closure: captures (free local idents), global mentions and
   function-typed field calls, with per-use guard tracking. *)
let closure_info ctx (lam : Typedtree.expression) =
  let bound = bound_idents lam in
  let mentions = ref [] in
  let fields = ref [] in
  let caps : (Ident.t, capture) Hashtbl.t = Hashtbl.create 8 in
  let hooks =
    {
      null_hooks with
      on_ident =
        (fun kind ty loc ~guarded ->
          match kind with
          | G r -> mentions := { m_ref = r; m_loc = loc; m_guarded = guarded } :: !mentions
          | Opaque -> ()
          | Local id ->
              if not (mem_ident id bound) then begin
                match Hashtbl.find_opt caps id with
                | Some c ->
                    Hashtbl.replace caps id
                      { c with c_guarded = c.c_guarded && guarded }
                | None ->
                    Hashtbl.replace caps id
                      {
                        c_id = id;
                        c_name = Ident.name id;
                        c_loc = loc;
                        c_ty = ty;
                        c_guarded = guarded;
                      }
              end);
      on_field_use =
        (fun lbl ty -> if is_arrow_ty ty then fields := lbl :: !fields);
    }
  in
  walk_expr ctx hooks lam;
  {
    cl_loc = lam.Typedtree.exp_loc;
    cl_mentions = !mentions;
    cl_fields = List.sort_uniq compare !fields;
    cl_captures = Hashtbl.fold (fun _ c acc -> c :: acc) caps [];
  }

(* The function-valued arguments of an application, as tasks. *)
let rec task_of_arg ctx (a : Typedtree.expression) =
  match a.exp_desc with
  | Texp_function _ -> Some (T_closure (closure_info ctx a))
  | Texp_construct (_, cd, [ inner ]) when cd.cstr_name = "Some" ->
      task_of_arg ctx inner
  | Texp_ident (p, _, _) when is_arrow_ty a.exp_type -> (
      match classify_path ctx p with
      | G r -> Some (T_global (r, a.exp_loc))
      | Local id -> Some (T_param (id, a.exp_loc))
      | Opaque -> None)
  | _ -> None

let tasks_of_args ctx args =
  List.filter_map
    (function _, Some a -> task_of_arg ctx a | _, None -> None)
    args

(* ---------- unit extraction ---------- *)

(* Mentions stored into a record field expression feed the field pool:
   a call through [r.field] anywhere may land in any of them. *)
let record_field_stores ctx fields =
  Array.iter
    (fun ((lbl : Types.label_description), def) ->
      match def with
      | Typedtree.Overridden (_, e) when is_arrow_ty lbl.lbl_arg ->
          let hooks =
            {
              null_hooks with
              on_ident =
                (fun kind ty _ ~guarded:_ ->
                  match kind with
                  | G r when is_arrow_ty ty -> add_field_store lbl.lbl_name r
                  | _ -> ());
            }
          in
          walk_expr ctx hooks e
      | _ -> ())
    fields

(* The per-unit prepass: toplevel value idents, module aliases and
   mutable-record type declarations.  It must run over every unit before
   [run] analyses any body; Alloc_core reuses the contexts. *)
let prepare (l : loaded) =
  build_ctx
    ~on_mutable_record:(fun r -> Hashtbl.replace mutable_records r ())
    ~modname:l.l_modname l.l_str

let extract_unit (l : loaded) ctx =
  let ui =
    {
      ui_unit = l;
      ui_ctx = ctx;
      ui_mod = ctx.x_mod;
      ui_in_parallel = string_contains ~sub:"lib/parallel/" l.l_source;
      ui_values = [];
      ui_mutables = [];
      ui_rogue_rngs = [];
      ui_submissions = [];
      ui_callsites = [];
      ui_local_lambdas = [];
      ui_def_locs = [];
    }
  in
  ui

(* Main extraction over one unit's structure: per-value mentions,
   submissions, callsites, field stores, local lambdas, def locs. *)
let extract_body (ui : unit_info) =
  let ctx = ui.ui_ctx in
  let cur_value : gref option ref = ref None in
  let cur_mentions = ref [] in
  let cur_fields = ref [] in
  let hooks =
    {
      on_ident =
        (fun kind _ty loc ~guarded ->
          match kind with
          | G r ->
              add_use ~from:ui.ui_mod r;
              cur_mentions :=
                {
                  m_ref = r;
                  m_loc = loc;
                  m_guarded = guarded || ui.ui_in_parallel;
                }
                :: !cur_mentions
          | Local _ | Opaque -> ());
      on_apply =
        (fun head_kind head args ~guarded:_ ->
          match head_kind with
          | Some (G r) ->
              let tasks = tasks_of_args ctx args in
              if parallel_entry r then
                ui.ui_submissions <-
                  {
                    s_owner = !cur_value;
                    s_callee = r;
                    s_loc = head.Typedtree.exp_loc;
                    s_scope = current_allow_scope ();
                    s_tasks = tasks;
                  }
                  :: ui.ui_submissions
              else if tasks <> [] then
                ui.ui_callsites <-
                  {
                    cs_owner = !cur_value;
                    cs_callee = r;
                    cs_loc = head.Typedtree.exp_loc;
                    cs_scope = current_allow_scope ();
                    cs_tasks = tasks;
                  }
                  :: ui.ui_callsites
          | _ -> ());
      on_field_use =
        (fun lbl ty -> if is_arrow_ty ty then cur_fields := lbl :: !cur_fields);
      on_record = (fun fields -> record_field_stores ctx fields);
    }
  in
  (* fix the submission loc: prefer the application's own location *)
  let walk_value qual (vb : Typedtree.value_binding) =
    match binding_var vb.vb_pat with
    | Some (id, name) ->
        let r = (qual, Ident.name id) in
        cur_value := Some r;
        cur_mentions := [];
        cur_fields := [];
        ui.ui_def_locs <- (id, name.loc) :: ui.ui_def_locs;
        (match mutable_ty_kind vb.vb_pat.pat_type with
        | Some kind ->
            ui.ui_mutables <-
              { md_ref = r; md_loc = vb.vb_pat.pat_loc; md_kind = kind }
              :: ui.ui_mutables
        | None -> ());
        (* rogue Rng: a generator minted at module toplevel *)
        (match vb.vb_expr.exp_desc with
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
            match classify_path ctx p with
            | G (q, v) when rng_mod q && (v = "create" || v = "split") ->
                ui.ui_rogue_rngs <- r :: ui.ui_rogue_rngs
            | _ -> ())
        | _ -> ());
        (match vb.vb_expr.exp_desc with
        | Texp_function _ ->
            ui.ui_local_lambdas <-
              (id, closure_info ctx vb.vb_expr) :: ui.ui_local_lambdas
        | _ -> ());
        with_allows vb.vb_attributes (fun () ->
            walk_expr ctx hooks vb.vb_expr);
        ui.ui_values <-
          {
            vi_ref = r;
            vi_loc = vb.vb_pat.pat_loc;
            vi_mentions = !cur_mentions;
            vi_fields = List.sort_uniq compare !cur_fields;
            vi_body = Some vb.vb_expr;
            vi_attrs = vb.vb_attributes;
          }
          :: ui.ui_values;
        cur_value := None
    | _ ->
        (* destructuring toplevel binding: record mentions anonymously *)
        cur_value := None;
        cur_mentions := [];
        with_allows vb.vb_attributes (fun () ->
            walk_expr ctx hooks vb.vb_expr)
  in
  let rec items qual (its : Typedtree.structure_item list) =
    List.iter
      (fun (it : Typedtree.structure_item) ->
        match it.str_desc with
        | Tstr_value (_, vbs) -> List.iter (walk_value qual) vbs
        | Tstr_module mb -> (
            let name =
              match mb.mb_id with Some id -> Ident.name id | None -> "_"
            in
            match mb.mb_expr.mod_desc with
            | Tmod_structure s
            | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) ->
                items name s.str_items
            | _ -> ())
        | Tstr_eval (e, _) ->
            cur_value := None;
            cur_mentions := [];
            walk_expr ctx hooks e
        | _ -> ())
      its
  in
  items ui.ui_mod ui.ui_unit.l_str.str_items

(* Collect toplevel lambdas bound to local idents inside function bodies
   too: [let work () = ... in Parallel.map ~jobs work xs].  A single
   extra sweep over every value body. *)
let collect_local_lambdas (ui : unit_info) =
  let ctx = ui.ui_ctx in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_let (_, vbs, _) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match (binding_var vb.vb_pat, vb.vb_expr.exp_desc) with
            | Some (id, name), Texp_function _ ->
                ui.ui_def_locs <- (id, name.loc) :: ui.ui_def_locs;
                ui.ui_local_lambdas <-
                  (id, closure_info ctx vb.vb_expr) :: ui.ui_local_lambdas
            | Some (id, name), _ ->
                ui.ui_def_locs <- (id, name.loc) :: ui.ui_def_locs
            | None, _ -> ())
          vbs
    | _ -> ());
    Tast_iterator.(default_iterator.expr) sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.structure iter ui.ui_unit.l_str

(* ---------- global tables ---------- *)

(* multi-binding: two libraries may normalise to the same module name *)
let values_tbl : (gref, value_info) Hashtbl.t = Hashtbl.create 512
let mutables_tbl : (gref, mutable_def) Hashtbl.t = Hashtbl.create 32
let rogue_rngs : (gref, unit) Hashtbl.t = Hashtbl.create 8

let build_tables () =
  List.iter
    (fun ui ->
      List.iter (fun vi -> Hashtbl.add values_tbl vi.vi_ref vi) (List.rev ui.ui_values);
      List.iter (fun md -> Hashtbl.replace mutables_tbl md.md_ref md) ui.ui_mutables;
      List.iter (fun r -> Hashtbl.replace rogue_rngs r ()) ui.ui_rogue_rngs)
    !units

(* ---------- S1: shared-mutable escape ---------- *)

(* What a task can effectively reach once let-bound local lambdas it
   captures are inlined.  A function-typed capture we cannot resolve means
   the enclosing function forwards *its caller's* closures into the pool —
   it becomes a submitter, and its own call sites are analysed instead. *)
type eff = {
  ef_mentions : mention list;
  ef_fields : string list;
  ef_caps : capture list;  (** non-function captures *)
  ef_escapes_params : bool;
}

let empty_eff =
  { ef_mentions = []; ef_fields = []; ef_caps = []; ef_escapes_params = false }

let find_local_lambda ui id =
  List.find_opt (fun (i, _) -> Ident.same i id) ui.ui_local_lambdas
  |> Option.map snd

let rec expand_closure ui visited (cl : closure_info) : eff =
  List.fold_left
    (fun eff (c : capture) ->
      if is_arrow_ty c.c_ty then
        if List.exists (fun v -> Ident.same v c.c_id) !visited then eff
        else begin
          visited := c.c_id :: !visited;
          match find_local_lambda ui c.c_id with
          | Some inner ->
              let e2 = expand_closure ui visited inner in
              {
                ef_mentions = e2.ef_mentions @ eff.ef_mentions;
                ef_fields = e2.ef_fields @ eff.ef_fields;
                ef_caps = e2.ef_caps @ eff.ef_caps;
                ef_escapes_params =
                  eff.ef_escapes_params || e2.ef_escapes_params;
              }
          | None -> { eff with ef_escapes_params = true }
        end
      else { eff with ef_caps = c :: eff.ef_caps })
    {
      ef_mentions = cl.cl_mentions;
      ef_fields = cl.cl_fields;
      ef_caps = [];
      ef_escapes_params = false;
    }
    cl.cl_captures

let eff_of_task ui = function
  | T_closure cl -> expand_closure ui (ref []) cl
  | T_global (r, loc) ->
      { empty_eff with ef_mentions = [ { m_ref = r; m_loc = loc; m_guarded = false } ] }
  | T_param _ -> { empty_eff with ef_escapes_params = true }

(* Functions that forward a caller-supplied closure into the Parallel
   pool (e.g. [Runner.map]); calls passing them a closure are submission
   sites too.  Fixpoint over call sites. *)
let submitters : (gref, unit) Hashtbl.t = Hashtbl.create 16

let compute_submitters () =
  let changed = ref true in
  let note = function
    | Some r when not (Hashtbl.mem submitters r) ->
        Hashtbl.replace submitters r ();
        changed := true
    | _ -> ()
  in
  List.iter
    (fun ui ->
      List.iter
        (fun s ->
          if
            List.exists
              (fun t -> (eff_of_task ui t).ef_escapes_params)
              s.s_tasks
          then note s.s_owner)
        ui.ui_submissions)
    !units;
  while !changed do
    changed := false;
    List.iter
      (fun ui ->
        List.iter
          (fun cs ->
            if
              Hashtbl.mem submitters cs.cs_callee
              && List.exists
                   (fun t -> (eff_of_task ui t).ef_escapes_params)
                   cs.cs_tasks
            then note cs.cs_owner)
          ui.ui_callsites)
      !units
  done

let s1_seen : (string, unit) Hashtbl.t = Hashtbl.create 16

let s1_once key f =
  if not (Hashtbl.mem s1_seen key) then begin
    Hashtbl.replace s1_seen key ();
    f ()
  end

let def_loc_of ui id =
  List.find_opt (fun (i, _) -> Ident.same i id) ui.ui_def_locs |> Option.map snd

let analyze_escape ui ~site_loc ~scope ~callee eff =
  (* captured locals of mutable type, unguarded inside the task *)
  if not ui.ui_in_parallel then
    List.iter
      (fun (c : capture) ->
        match mutable_ty_kind c.c_ty with
        | Some kind when not c.c_guarded ->
            let def =
              match def_loc_of ui c.c_id with
              | Some l -> Printf.sprintf "allocated at %s" (loc_str l)
              | None -> "allocation site not in this unit"
            in
            s1_once
              (Printf.sprintf "cap:%s:%s" c.c_name (loc_str site_loc))
              (fun () ->
                report_in_scope scope "S1" site_loc
                  (Printf.sprintf
                     "mutable '%s' (%s, %s) is captured (at %s) by a task \
                      handed to %s with no Mutex.protect/Parallel.Guard.with_ \
                      around its uses — a cross-domain data race"
                     c.c_name kind def (loc_str c.c_loc) callee))
        | _ -> ())
      eff.ef_caps;
  (* module-level mutables reachable from the task body *)
  let visited : (gref, unit) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let check_mentions via ms =
    List.iter
      (fun m ->
        if (not m.m_guarded) && Hashtbl.mem mutables_tbl m.m_ref then
          let md = Hashtbl.find mutables_tbl m.m_ref in
          let chain =
            match via with
            | [] -> "directly"
            | path ->
                "via " ^ String.concat " -> " (take 3 (List.rev_map gref_str path))
          in
          s1_once
            (Printf.sprintf "glob:%s:%s" (gref_str m.m_ref) (loc_str site_loc))
            (fun () ->
              report_in_scope scope "S1" site_loc
                (Printf.sprintf
                   "module-level mutable '%s' (%s, defined at %s) is accessed \
                    unguarded at %s, reachable %s from a task handed to %s — \
                    wrap the accesses in Parallel.Guard.with_ (or Mutex.protect)"
                   (gref_str md.md_ref) md.md_kind (loc_str md.md_loc)
                   (loc_str m.m_loc) chain callee)))
      ms
  in
  let push via r = Queue.add (r, via) queue in
  let push_fields via fields =
    List.iter
      (fun lbl ->
        match Hashtbl.find_opt field_pools lbl with
        | Some pool -> Hashtbl.iter (fun r () -> push via r) pool
        | None -> ())
      fields
  in
  check_mentions [] eff.ef_mentions;
  List.iter (fun m -> push [] m.m_ref) eff.ef_mentions;
  push_fields [] eff.ef_fields;
  while not (Queue.is_empty queue) do
    let r, via = Queue.take queue in
    if not (Hashtbl.mem visited r) then begin
      Hashtbl.replace visited r ();
      List.iter
        (fun vi ->
          let via' = r :: via in
          check_mentions via' vi.vi_mentions;
          List.iter (fun m -> push via' m.m_ref) vi.vi_mentions;
          push_fields via' vi.vi_fields)
        (Hashtbl.find_all values_tbl r)
    end
  done

let run_s1 () =
  List.iter
    (fun ui ->
      List.iter
        (fun s ->
          List.iter
            (fun t ->
              analyze_escape ui ~site_loc:s.s_loc ~scope:s.s_scope
                ~callee:(gref_str s.s_callee) (eff_of_task ui t))
            s.s_tasks)
        (List.rev ui.ui_submissions);
      List.iter
        (fun cs ->
          if Hashtbl.mem submitters cs.cs_callee then
            List.iter
              (fun t ->
                analyze_escape ui ~site_loc:cs.cs_loc ~scope:cs.cs_scope
                  ~callee:
                    (Printf.sprintf "%s (which forwards it into the Parallel pool)"
                       (gref_str cs.cs_callee))
                  (eff_of_task ui t))
              cs.cs_tasks)
        (List.rev ui.ui_callsites))
    !units

(* ---------- S2: determinism taint ---------- *)

type taint = { t_kind : string; t_loc : Location.t }

(* gref -> taint its result may carry; grown monotonically to fixpoint. *)
let summaries : (gref, taint) Hashtbl.t = Hashtbl.create 64
let s2_seen : (string, unit) Hashtbl.t = Hashtbl.create 16
let s2_changed = ref false
let s2_record = ref false

let union2 a b = match a with Some _ -> a | None -> b
let unions ts = List.fold_left union2 None ts

(* Enclosing-scope locals a lambda reads: what a [Hashtbl.iter] body can
   mutate in nondeterministic order. *)
let free_locals ctx (lam : Typedtree.expression) =
  let bound = bound_idents lam in
  let acc = ref [] in
  let hooks =
    {
      null_hooks with
      on_ident =
        (fun kind _ _ ~guarded:_ ->
          match kind with
          | Local id when not (mem_ident id bound) -> acc := id :: !acc
          | _ -> ());
    }
  in
  walk_expr ctx hooks lam;
  !acc

let table_type ty =
  match Types.get_desc ty with
  | Tconstr (Path.Pdot (pre, "table"), _, _) ->
      norm_mod (path_last_mod pre) = "Output"
  | _ -> false

let sink_hit sink (t : taint) (loc : Location.t) =
  if !s2_record then
    let key = Printf.sprintf "%s:%s" (loc_str t.t_loc) (loc_str loc) in
    if not (Hashtbl.mem s2_seen key) then begin
      Hashtbl.replace s2_seen key ();
      report "S2" loc
        (Printf.sprintf
           "%s (introduced at %s) reaches '%s' — run-to-run nondeterminism in \
            observable output; sort/derive deterministically before emitting"
           t.t_kind (loc_str t.t_loc) sink)
    end

let rogue_arg ctx (a : Typedtree.expression) =
  match a.exp_desc with
  | Texp_ident (p, _, _) -> (
      match classify_path ctx p with
      | G r -> Hashtbl.mem rogue_rngs r
      | _ -> false)
  | _ -> false

let rec ev ctx env (e : Typedtree.expression) : taint option =
  with_allows e.exp_attributes (fun () ->
      match e.exp_desc with
      | Texp_ident (p, _, _) -> (
          match classify_path ctx p with
          | Local id -> Hashtbl.find_opt env id
          | G r -> Hashtbl.find_opt summaries r
          | Opaque -> None)
      | Texp_constant _ -> None
      | Texp_let (_, vbs, body) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match ev ctx env vb.vb_expr with
              | Some t ->
                  List.iter
                    (fun id -> Hashtbl.replace env id t)
                    (pat_idents vb.vb_pat)
              | None -> ())
            vbs;
          ev ctx env body
      | Texp_function _ -> None
      | Texp_apply (head, args) -> ev_apply ctx env e head args
      | Texp_match (scrut, cases, _) ->
          let st = ev ctx env scrut in
          let ts =
            List.map
              (fun (c : Typedtree.computation Typedtree.case) ->
                (match st with
                | Some t ->
                    List.iter
                      (fun id -> Hashtbl.replace env id t)
                      (pat_idents c.c_lhs)
                | None -> ());
                ev ctx env c.c_rhs)
              cases
          in
          unions (st :: ts)
      | Texp_try (b, cases) ->
          unions
            (ev ctx env b
            :: List.map
                 (fun (c : Typedtree.value Typedtree.case) -> ev ctx env c.c_rhs)
                 cases)
      | Texp_tuple es | Texp_construct (_, _, es) | Texp_array es ->
          unions (List.map (ev ctx env) es)
      | Texp_variant (_, eo) -> Option.bind eo (ev ctx env)
      | Texp_record { fields; extended_expression; _ } ->
          let ts =
            Array.to_list fields
            |> List.map (function
                 | _, Typedtree.Overridden (_, x) -> ev ctx env x
                 | _, Typedtree.Kept _ -> None)
          in
          let base = Option.bind extended_expression (ev ctx env) in
          let t = unions (base :: ts) in
          (match t with
          | Some taint when table_type e.exp_type ->
              sink_hit "Output.table literal" taint e.exp_loc
          | _ -> ());
          t
      | Texp_field (b, _, _) -> ev ctx env b
      | Texp_setfield (b, _, _, v) ->
          (match (ev ctx env v, b.exp_desc) with
          | Some taint, Texp_ident (p, _, _) -> (
              match classify_path ctx p with
              | Local id -> Hashtbl.replace env id taint
              | _ -> ())
          | _ -> ());
          ignore (ev ctx env b);
          None
      | Texp_ifthenelse (c, t, f) ->
          unions [ ev ctx env c; ev ctx env t; Option.bind f (ev ctx env) ]
      | Texp_sequence (a, b) ->
          ignore (ev ctx env a);
          ev ctx env b
      | Texp_while (c, b) ->
          ignore (ev ctx env c);
          ignore (ev ctx env b);
          None
      | Texp_for (_, _, lo, hi, _, b) ->
          ignore (ev ctx env lo);
          ignore (ev ctx env hi);
          ignore (ev ctx env b);
          None
      | Texp_open (_, b) | Texp_lazy b -> ev ctx env b
      | Texp_letmodule (_, _, _, _, b) -> ev ctx env b
      | Texp_assert _ -> None
      | _ -> None)

and ev_apply ctx env e head args =
  let some_args =
    List.filter_map (function _, Some a -> Some a | _ -> None) args
  in
  let at = unions (List.map (ev ctx env) some_args) in
  match head.Typedtree.exp_desc with
  | Texp_ident (p, _, _) -> (
      match classify_path ctx p with
      | G r ->
          if sort_sanitizer r then None
          else if hashtbl_order_source r then begin
            let t =
              { t_kind = "Hashtbl iteration order"; t_loc = e.Typedtree.exp_loc }
            in
            (* iter/fold run the closure in nondeterministic key order:
               whatever it accumulates into is order-tainted too *)
            List.iter
              (fun (a : Typedtree.expression) ->
                match a.exp_desc with
                | Texp_function _ ->
                    List.iter
                      (fun id -> Hashtbl.replace env id t)
                      (free_locals ctx a)
                | _ -> ())
              some_args;
            Some t
          end
          else if physical_eq r then
            if
              List.exists
                (fun (a : Typedtree.expression) ->
                  not (is_immediate_ty a.exp_type))
                some_args
            then
              Some
                {
                  t_kind = "physical equality on boxed values";
                  t_loc = e.Typedtree.exp_loc;
                }
            else None
          else if float_repr_source r then
            union2
              (Some
                 {
                   t_kind = "string_of_float formatting (emits nan/inf unguarded)";
                   t_loc = e.Typedtree.exp_loc;
                 })
              at
          else if
            rng_mod (fst r)
            && (not (List.mem (snd r) [ "create"; "split" ]))
            && List.exists (rogue_arg ctx) some_args
          then
            Some
              {
                t_kind = "draw from a module-toplevel Rng (not derived from the per-sim seed)";
                t_loc = e.Typedtree.exp_loc;
              }
          else if sink_fn r then begin
            (match at with
            | Some t -> sink_hit (gref_str r) t e.Typedtree.exp_loc
            | None -> ());
            None
          end
          else union2 (Hashtbl.find_opt summaries r) at
      | Local id -> union2 (Hashtbl.find_opt env id) at
      | Opaque -> at)
  | _ -> union2 (ev ctx env head) at

(* Return-taint of a function value: descend to the body under the
   parameters, evaluate with an empty (untainted) environment. *)
let rec fun_body_taint ctx env (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      unions
        (List.map
           (fun (c : Typedtree.value Typedtree.case) ->
             fun_body_taint ctx env c.c_rhs)
           cases)
  | _ -> ev ctx env e

let taint_pass record =
  s2_record := record;
  List.iter
    (fun ui ->
      enter_file ui.ui_unit;
      let ctx = ui.ui_ctx in
      List.iter
        (fun vi ->
          match vi.vi_body with
          | None -> ()
          | Some body ->
              let env = Hashtbl.create 16 in
              let t =
                with_allows vi.vi_attrs (fun () -> fun_body_taint ctx env body)
              in
              (match t with
              | Some t when not (Hashtbl.mem summaries vi.vi_ref) ->
                  Hashtbl.replace summaries vi.vi_ref t;
                  s2_changed := true
              | _ -> ()))
        (List.rev ui.ui_values))
    !units

let run_taint () =
  let rec loop n =
    s2_changed := false;
    taint_pass false;
    if !s2_changed && n < 8 then loop (n + 1)
  in
  loop 0;
  taint_pass true

(* ---------- S3: unused exports ---------- *)

let extract_intf (i : loaded_intf) =
  let file_scope =
    List.concat_map
      (fun (it : Typedtree.signature_item) ->
        match it.sig_desc with
        | Tsig_attribute a -> Option.to_list (allows_of_attribute a)
        | _ -> [])
      i.i_sig.sig_items
  in
  let rec walk qual (items : Typedtree.signature_item list) =
    List.iter
      (fun (it : Typedtree.signature_item) ->
        match it.sig_desc with
        | Tsig_value vd ->
            exports :=
              {
                e_unit = norm_mod i.i_modname;
                e_qual = qual;
                e_name = vd.val_name.txt;
                e_loc = vd.val_name.loc;
                e_scope = allows_of_attributes vd.val_attributes @ file_scope;
              }
              :: !exports
        | Tsig_module md -> (
            match md.md_type.mty_desc with
            | Tmty_signature sg ->
                let name =
                  match md.md_id with Some id -> Ident.name id | None -> "_"
                in
                walk name sg.sig_items
            | _ -> ())
        | _ -> ())
      items
  in
  walk (norm_mod i.i_modname) i.i_sig.sig_items

let report_unused_exports () =
  let used e =
    match Hashtbl.find_opt uses (e.e_qual, e.e_name) with
    | None -> false
    | Some tbl -> Hashtbl.fold (fun u () acc -> acc || u <> e.e_unit) tbl false
  in
  List.iter
    (fun e ->
      if not (used e) then
        report_in_scope e.e_scope "S3" e.e_loc
          (Printf.sprintf
             "'%s.%s' is exported by its .mli but never referenced outside %s; \
              delete the export, or keep it with [@@lint.allow \"S3\"] and a \
              comment saying why"
             e.e_qual e.e_name e.e_unit))
    (List.rev !exports)

(* ---------- S5: snapshot-invisible mutable state ---------- *)

(* [Sim.Snapshot.save] marshals exactly what is reachable from the
   (simulation, world) pair.  Module-level mutable state lives outside
   that graph, so a restore in a fresh process silently resets it (and a
   same-process restore silently *duplicates* it).  Record fields typed
   as OS resources travel through Marshal either not at all (channels
   are custom blocks, so [save] aborts) or as dead numbers
   ([Unix.file_descr]).  Both escape checkpointing and must be
   acknowledged with [@snapshot.opaque]: the annotation is a reviewed
   claim that the state is recomputable or deliberately per-process.
   lib/parallel is exempt — the pool is per-process by construction and
   never part of a snapshotted world. *)

let snapshot_opaque_attr (attrs : Typedtree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = "snapshot.opaque")
    attrs

let resource_ty_names =
  [
    ("Unix.file_descr", "Unix.file_descr");
    ("Stdlib.in_channel", "in_channel");
    ("in_channel", "in_channel");
    ("Stdlib.out_channel", "out_channel");
    ("out_channel", "out_channel");
    ("Stdlib.Mutex.t", "Mutex.t");
    ("Mutex.t", "Mutex.t");
    ("Stdlib.Condition.t", "Condition.t");
    ("Condition.t", "Condition.t");
    ("Stdlib.Semaphore.Counting.t", "Semaphore.Counting.t");
    ("Semaphore.Counting.t", "Semaphore.Counting.t");
    ("Stdlib.Semaphore.Binary.t", "Semaphore.Binary.t");
    ("Semaphore.Binary.t", "Semaphore.Binary.t");
    ("Stdlib.Domain.t", "Domain.t");
    ("Domain.t", "Domain.t");
  ]

(* An OS resource anywhere inside constructor applications or tuples
   ([out_channel option], [(string * Unix.file_descr) list], ...). *)
let rec core_ty_resource (ct : Typedtree.core_type) =
  match ct.ctyp_desc with
  | Ttyp_constr (p, _, args) -> (
      match List.assoc_opt (Path.name p) resource_ty_names with
      | Some pretty -> Some pretty
      | None -> List.find_map core_ty_resource args)
  | Ttyp_tuple cts -> List.find_map core_ty_resource cts
  (* label-declaration types arrive wrapped in a (trivial) Ttyp_poly *)
  | Ttyp_poly (_, ct) | Ttyp_alias (ct, _) -> core_ty_resource ct
  | _ -> None

(* Both the parser and ppx conventions allow a field attribute to land
   on the label declaration or on its core type; accept either. *)
let field_opaque (ld : Typedtree.label_declaration) =
  snapshot_opaque_attr ld.ld_attributes
  || snapshot_opaque_attr ld.ld_type.ctyp_attributes

(* [Parallel.Guard.t] is immutable as a record but wraps shared mutable
   state by design — [mutable_ty_kind] deliberately does not pierce it
   (a guarded global is not an S1 race), yet a snapshot still cannot
   capture it, so S5 treats a toplevel Guard as module-level mutable. *)
let guard_ty ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) ->
      List.mem (Path.name p) [ "Parallel.Guard.t"; "Guard.t" ]
  | _ -> false

let run_s5 () =
  List.iter
    (fun ui ->
      if
        (!assume_scope_lib || string_prefix ~prefix:"lib/" ui.ui_unit.l_source)
        && not ui.ui_in_parallel
      then begin
        (* (a) module-level mutable bindings: outside the marshaled graph *)
        List.iter
          (fun md ->
            let attrs =
              match
                List.find_opt (fun vi -> vi.vi_ref = md.md_ref) ui.ui_values
              with
              | Some vi -> vi.vi_attrs
              | None -> []
            in
            if not (snapshot_opaque_attr attrs) then
              let scope =
                file_level_allows ui.ui_unit.l_str @ allows_of_attributes attrs
              in
              report_in_scope scope "S5" md.md_loc
                (Printf.sprintf
                   "module-level mutable '%s' (%s) is invisible to \
                    Sim.Snapshot.save — a restored run silently resets it; \
                    move it into a record reachable from the snapshot \
                    world, or annotate [@snapshot.opaque] if it is \
                    recomputable per-process state"
                   (gref_str md.md_ref) md.md_kind))
          ui.ui_mutables;
        (* (a') toplevel Parallel.Guard values: same hazard, guarded *)
        List.iter
          (fun (item : Typedtree.structure_item) ->
            match item.str_desc with
            | Tstr_value (_, vbs) ->
                List.iter
                  (fun (vb : Typedtree.value_binding) ->
                    match binding_var vb.vb_pat with
                    | Some (_, name)
                      when guard_ty vb.vb_pat.pat_type
                           && not (snapshot_opaque_attr vb.vb_attributes) ->
                        let scope =
                          file_level_allows ui.ui_unit.l_str
                          @ allows_of_attributes vb.vb_attributes
                        in
                        report_in_scope scope "S5" vb.vb_pat.pat_loc
                          (Printf.sprintf
                             "module-level mutable '%s.%s' (Parallel.Guard.t) \
                              is invisible to Sim.Snapshot.save — a restored \
                              run silently resets it; move it into a record \
                              reachable from the snapshot world, or annotate \
                              [@snapshot.opaque] if it is recomputable \
                              per-process state"
                             ui.ui_mod name.txt)
                    | _ -> ())
                  vbs
            | _ -> ())
          ui.ui_unit.l_str.str_items;
        (* (b) record fields typed as OS resources *)
        List.iter
          (fun (item : Typedtree.structure_item) ->
            match item.str_desc with
            | Tstr_type (_, decls) ->
                List.iter
                  (fun (d : Typedtree.type_declaration) ->
                    match d.typ_kind with
                    | Ttype_record labels ->
                        List.iter
                          (fun (ld : Typedtree.label_declaration) ->
                            match core_ty_resource ld.ld_type with
                            | Some res when not (field_opaque ld) ->
                                let scope =
                                  file_level_allows ui.ui_unit.l_str
                                  @ allows_of_attributes ld.ld_attributes
                                in
                                report_in_scope scope "S5" ld.ld_loc
                                  (Printf.sprintf
                                     "record field '%s.%s' holds an OS \
                                      resource (%s) that a snapshot cannot \
                                      capture or restore — keep resources \
                                      out of checkpointed state, or \
                                      annotate the field [@snapshot.opaque] \
                                      and re-open it after restore"
                                     d.typ_name.txt ld.ld_name.txt res)
                            | _ -> ())
                          labels
                    | _ -> ())
                  decls
            | _ -> ())
          ui.ui_unit.l_str.str_items
      end)
    !units

(* ---------- entry point ---------- *)

(* Extract every unit, then run S1, S2, S3 and S5.  [prepared] pairs each
   implementation with its [prepare] context. *)
let run (prepared : (loaded * unit_ctx) list) (intfs : loaded_intf list) =
  units :=
    List.map
      (fun (l, ctx) ->
        let ui = extract_unit l ctx in
        enter_file l;
        extract_body ui;
        collect_local_lambdas ui;
        ui)
      prepared;
  List.iter extract_intf intfs;
  build_tables ();
  compute_submitters ();
  run_s1 ();
  run_taint ();
  report_unused_exports ();
  run_s5 ()
