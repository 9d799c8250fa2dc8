(* lint_core — the engine behind pertlint's rule families.

   Everything the families share lives here: the rule registry, the
   [@lint.allow] suppression machinery (with per-attribute hit tracking,
   which is what lets S4 report *stale* suppressions), diagnostic
   accounting, text/json emission, .cmt collection, and the
   expression-local rules D1..W1 themselves.  The whole-program families
   are Scan_core (S1, S2, S3, S5) and Alloc_core (A1..A3).

   Every rule is documented in pertlint.ml's header; README "Static
   analysis", "Whole-program analysis" and "Allocation discipline" carry
   the user-facing tables. *)

(* No current rule is warning-severity; the level exists so later rules can
   be introduced without immediately gating the build. *)
type severity = Err | Warn [@@warning "-37"]

type rule = { id : string; severity : severity; what : string }

(* Every rule, in stats-table order. *)
let all_rules =
  [
    (* expression-local (check_file) *)
    { id = "D1"; severity = Err; what = "Random.* outside lib/engine/rng.ml" };
    { id = "D2"; severity = Err; what = "wall-clock/environment read in lib/" };
    { id = "D3"; severity = Err; what = "module-toplevel mutable state in lib/" };
    { id = "N1"; severity = Err; what = "structural =/compare/min/max on float" };
    { id = "N2"; severity = Err; what = "Obj.magic" };
    { id = "H1"; severity = Err; what = "catch-all exception handler" };
    { id = "M1"; severity = Err; what = "lib/ module without an .mli" };
    { id = "U1"; severity = Err; what = "unit-suffixed name bound as raw float in lib/" };
    { id = "U2"; severity = Err; what = "inline probability comparison against an Rng draw" };
    { id = "U3"; severity = Err; what = "bare truncation of a unit-suffixed value" };
    { id = "N3"; severity = Err; what = "float->int truncation in lib/ outside Units.Round" };
    { id = "P1"; severity = Err; what = "concurrency primitive in lib/ outside lib/parallel" };
    { id = "R1"; severity = Err; what = "blocking/process-control call in lib/" };
    { id = "W1"; severity = Err; what = "raw int window binding in lib/tcp outside Tcp_window" };
    (* whole-program (Scan_core, and S4 below) *)
    { id = "S1"; severity = Err;
      what = "mutable state escapes unsynchronized into a Parallel task" };
    { id = "S2"; severity = Err;
      what = "nondeterminism source flows to a result store/renderer/trace sink" };
    { id = "S3"; severity = Err;
      what = ".mli export never referenced outside its module" };
    { id = "S4"; severity = Err;
      what = "[@lint.allow] that suppresses no diagnostic" };
    { id = "S5"; severity = Err;
      what = "mutable lib/ state a snapshot cannot capture, without \
              [@snapshot.opaque]" };
    (* allocation-effect (Alloc_core) *)
    { id = "A1"; severity = Err;
      what = "heap allocation reachable from an [@alloc.zero] root" };
    { id = "A2"; severity = Err;
      what = "boxed-float allocation on the zero-alloc hot path" };
    { id = "A3"; severity = Err;
      what = "per-iteration closure allocation in a loop on the hot path" };
  ]

let rule_by_id id = List.find_opt (fun r -> r.id = id) all_rules

(* ---------- configuration (set once from the CLI by the driver) ---------- *)

let prog = "pertlint"

(* Rules whose findings are reported.  Every family always runs whatever
   this says, so an allow is credited even when its rule is filtered
   out, and S4 stays exact under any --rules subset. *)
let enabled_rules = ref (List.map (fun r -> r.id) all_rules)
let assume_scope_lib = ref false
let assume_scope_tcp = ref false
let quiet = ref false
let stats = ref false
let format_json = ref false

(* ---------- per-run accounting ---------- *)

let counts : (string, int) Hashtbl.t = Hashtbl.create 8
let error_total = ref 0

type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_severity : string;
  f_rule : string;
  f_message : string;
}

(* Accumulated in reverse; only materialised for --format=json. *)
let findings : finding list ref = ref []

(* ---------- suppression ---------- *)

(* Every [@lint.allow] attribute instance seen during a run, keyed by its
   source location so the walks that may visit the same attribute (the
   main iterator, the dedicated D3 walk, the whole-program passes) share
   one entry.  [hits] counts the diagnostics the attribute actually
   suppressed; an entry still at 0 when every family has run is a stale
   suppression (rule S4). *)
type allow_entry = {
  a_loc : Location.t;
  a_rules : string list;
  a_hits : int ref;
}

let allow_registry : (string * int * int, allow_entry) Hashtbl.t =
  Hashtbl.create 64

let registered_allows () =
  Hashtbl.fold (fun _ e acc -> e :: acc) allow_registry []

(* ---------- per-file state ---------- *)

let cur_source = ref ""
let cur_in_lib = ref false
let file_allows : allow_entry list ref = ref []
let allow_stack : allow_entry list ref = ref []

let string_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let string_suffix ~suffix s =
  let ls = String.length s and l = String.length suffix in
  ls >= l && String.sub s (ls - l) l = suffix

let string_contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let split_rule_list s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char ',')
  |> List.filter_map (fun t ->
         let t = String.trim t in
         if t = "" then None else Some t)

let register_allow (loc : Location.t) rules =
  let p = loc.loc_start in
  let key = (p.pos_fname, p.pos_lnum, p.pos_cnum - p.pos_bol) in
  match Hashtbl.find_opt allow_registry key with
  | Some e -> e
  | None ->
      let e = { a_loc = loc; a_rules = rules; a_hits = ref 0 } in
      Hashtbl.replace allow_registry key e;
      e

let allows_of_attribute (attr : Parsetree.attribute) =
  if attr.attr_name.txt <> "lint.allow" then None
  else
    match attr.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval
                ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] ->
        Some (register_allow attr.attr_loc (split_rule_list s))
    | _ -> None

let allows_of_attributes attrs = List.filter_map allows_of_attribute attrs

let with_allows attrs f =
  match allows_of_attributes attrs with
  | [] -> f ()
  | allows ->
      allow_stack := allows @ !allow_stack;
      Fun.protect
        ~finally:(fun () ->
          allow_stack :=
            List.filteri (fun i _ -> i >= List.length allows) !allow_stack)
        f

(* The scope (file-level + enclosing attributes) in force right now, e.g.
   to snapshot at an extraction site for later whole-program reporting. *)
let current_allow_scope () = !file_allows @ !allow_stack

let scope_allows scope id =
  match List.find_opt (fun e -> List.mem id e.a_rules) scope with
  | Some e ->
      incr e.a_hits;
      true
  | None -> false

let emit_finding id (loc : Location.t) msg =
  let r = match rule_by_id id with Some r -> r | None -> assert false in
  let p = loc.loc_start in
  let sev = match r.severity with Err -> "error" | Warn -> "warning" in
  if r.severity = Err then incr error_total;
  Hashtbl.replace counts id
    (1 + Option.value ~default:0 (Hashtbl.find_opt counts id));
  findings :=
    {
      f_file = p.pos_fname;
      f_line = p.pos_lnum;
      f_col = p.pos_cnum - p.pos_bol;
      f_severity = sev;
      f_rule = id;
      f_message = msg;
    }
    :: !findings;
  if not (!quiet || !format_json) then
    Printf.printf "%s:%d:%d: %s [%s] %s\n" p.pos_fname p.pos_lnum
      (p.pos_cnum - p.pos_bol) sev id msg

(* Report against a scope snapshotted earlier with [current_allow_scope]
   — whole-program findings are emitted long after the traversal that
   discovered their sites.  The allow check comes first: it credits the
   suppressing attribute whether or not [id] is enabled. *)
let report_in_scope scope id (loc : Location.t) msg =
  if (not (scope_allows scope id)) && List.mem id !enabled_rules then
    emit_finding id loc msg

(* Report against the ambient (traversal-time) suppression scope. *)
let report id loc msg = report_in_scope (current_allow_scope ()) id loc msg

(* ---------- cmt loading ---------- *)

type loaded = {
  l_path : string;  (** the .cmt file *)
  l_source : string;  (** the .ml it was compiled from *)
  l_modname : string;  (** compilation unit name, e.g. "Experiments__Output" *)
  l_str : Typedtree.structure;
}

let load_cmt path =
  let info =
    (* Any read/unmarshal failure means an unusable .cmt, whatever the
       exception; fail the run with a pointer to the file. *)
    (try Cmt_format.read_cmt path
     with _ ->
       Printf.eprintf "%s: cannot read %s\n" prog path;
       exit 2)
    [@lint.allow "H1"]
  in
  match info.cmt_sourcefile with
  | None -> None
  | Some src when string_suffix ~suffix:".ml-gen" src -> None
  | Some src -> (
      match info.cmt_annots with
      | Implementation str ->
          Some
            { l_path = path; l_source = src; l_modname = info.cmt_modname; l_str = str }
      | _ -> None)

type loaded_intf = {
  i_path : string;  (** the .cmti file *)
  i_source : string;  (** the .mli it was compiled from *)
  i_modname : string;
  i_sig : Typedtree.signature;
}

let load_cmti path =
  let info =
    (try Cmt_format.read_cmt path
     with _ ->
       Printf.eprintf "%s: cannot read %s\n" prog path;
       exit 2)
    [@lint.allow "H1"]
  in
  match info.cmt_sourcefile with
  | None -> None
  | Some src -> (
      match info.cmt_annots with
      | Interface sg ->
          Some { i_path = path; i_source = src; i_modname = info.cmt_modname; i_sig = sg }
      | _ -> None)

let file_level_allows (s : Typedtree.structure) =
  List.concat_map
    (fun (it : Typedtree.structure_item) ->
      match it.str_desc with
      | Tstr_attribute a -> Option.to_list (allows_of_attribute a)
      | _ -> [])
    s.str_items

(* Arm the per-file state for [l]; every subsequent [report] attributes
   diagnostics to its source file and resolves allows against its
   file-level attributes. *)
let enter_file (l : loaded) =
  cur_source := l.l_source;
  cur_in_lib := !assume_scope_lib || string_prefix ~prefix:"lib/" l.l_source;
  file_allows := file_level_allows l.l_str;
  allow_stack := []

(* Collect build artifacts under the given roots, skipping the
   deliberately-bad lint/scan fixtures (linted only when a fixture .cmt is
   passed explicitly). *)
let rec collect ~suffix acc path =
  let base = Filename.basename path in
  if
    base = "lint_fixtures" || base = "scan_fixtures" || base = "alloc_fixtures"
    || base = ".git"
  then acc
  else if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> collect ~suffix acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if Filename.check_suffix path suffix then path :: acc
  else acc

let collect_under ~suffix roots =
  List.concat_map
    (fun r ->
      if not (Sys.file_exists r) then begin
        Printf.eprintf "%s: no such path %s\n" prog r;
        exit 2
      end;
      List.sort compare (collect ~suffix [] r))
    roots

(* A scan that finds nothing is almost always a wrong root (e.g. the
   source tree instead of _build/default, or a pre-build invocation) and
   would otherwise report a misleading clean pass; CI must never
   green-light an empty run. *)
let require_nonempty ~what roots xs =
  if xs = [] then begin
    Printf.eprintf
      "%s: no %s under %s — build first, and point at the _build tree (e.g. \
       _build/default/lib)\n"
      prog what
      (String.concat " " roots);
    exit 2
  end;
  xs

(* ---------- expression-local rule predicates (D1..W1) ---------- *)

let in_lib () = !cur_in_lib
let is_rng_ml () = string_suffix ~suffix:"lib/engine/rng.ml" !cur_source
let is_units_ml () = string_suffix ~suffix:"lib/units/units.ml" !cur_source
let in_parallel_lib () = string_contains ~sub:"lib/parallel/" !cur_source
let in_tcp_lib () = !assume_scope_tcp || string_contains ~sub:"lib/tcp/" !cur_source
let is_tcp_window_ml () = string_suffix ~suffix:"lib/tcp/tcp_window.ml" !cur_source

let d1_hit name =
  name = "Stdlib.Random" || string_prefix ~prefix:"Stdlib.Random." name

let d2_names =
  [
    "Stdlib.Sys.time";
    "Stdlib.Sys.getenv";
    "Stdlib.Sys.getenv_opt";
    "Unix.gettimeofday";
    "Unix.time";
    "Unix.times";
    "Unix.clock";
    "Unix.localtime";
    "Unix.gmtime";
    "Unix.getenv";
    "Unix.environment";
  ]

let r1_names =
  [
    "Unix.sleep";
    "Unix.sleepf";
    "Unix.select";
    "Stdlib.Sys.command";
    "Unix.system";
    "Stdlib.exit";
  ]

let n1_fns =
  [
    "Stdlib.=";
    "Stdlib.<>";
    "Stdlib.==";
    "Stdlib.!=";
    "Stdlib.compare";
    "Stdlib.min";
    "Stdlib.max";
  ]

let d3_creators =
  [
    "Stdlib.ref";
    "Stdlib.Hashtbl.create";
    "Stdlib.Buffer.create";
    "Stdlib.Queue.create";
    "Stdlib.Stack.create";
    "Stdlib.Atomic.make";
    "Stdlib.Array.make";
    "Stdlib.Array.create_float";
    "Stdlib.Array.init";
    "Stdlib.Bytes.create";
    "Stdlib.Bytes.make";
    "Stdlib.Random.State.make";
    "Stdlib.Random.get_state";
  ]

let is_float_ty ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> Path.same p Predef.path_float
  | _ -> false

let is_int_ty ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> Path.same p Predef.path_int
  | _ -> false

(* Suffixes that claim a unit in a name.  [_p] is the conventional
   probability suffix (RED's max_p); a lone "p" does not match. *)
let unit_suffixes =
  [ "_s"; "_ms"; "_us"; "_bps"; "_mbps"; "_bytes"; "_pkts"; "_prob"; "_p" ]

let unit_suffixed name =
  List.exists (fun suffix -> string_suffix ~suffix name) unit_suffixes

(* Names that claim to be a TCP window (W1).  Composite names like
   [wnd_scale] or [window_allows_new] do not match: only a name that
   *is* a window, not one that merely mentions it. *)
let window_suffixes = [ "_wnd"; "_window"; "_rwnd"; "_awnd" ]
let window_exact = [ "wnd"; "window"; "rwnd"; "awnd" ]

let window_named name =
  List.mem name window_exact
  || List.exists (fun suffix -> string_suffix ~suffix name) window_suffixes

let u2_cmp_fns =
  [ "Stdlib.<"; "Stdlib.<="; "Stdlib.>"; "Stdlib.>="; "Stdlib.="; "Stdlib.<>" ]

let is_rng_draw (a : Typedtree.expression) =
  match a.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (path, _, _); _ }, _) ->
      string_suffix ~suffix:"Rng.float" (Path.name path)
  | _ -> false

let truncators = [ "Stdlib.int_of_float"; "Stdlib.truncate"; "Stdlib.Float.to_int" ]

let p1_roots =
  [ "Stdlib.Domain"; "Stdlib.Mutex"; "Stdlib.Condition"; "Stdlib.Atomic" ]

let p1_hit name =
  List.exists
    (fun root -> name = root || string_prefix ~prefix:(root ^ ".") name)
    p1_roots

(* The name a U3 diagnostic can attach to: a unit-suffixed identifier or
   record field being truncated. *)
let unit_named_operand (a : Typedtree.expression) =
  match a.exp_desc with
  | Texp_ident (path, _, _) when unit_suffixed (Path.last path) ->
      Some (Path.last path)
  | Texp_field (_, _, lbl) when unit_suffixed lbl.lbl_name -> Some lbl.lbl_name
  | _ -> None

let rec catch_all_pat (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_any -> true
  | Tpat_alias (p, _, _) -> catch_all_pat p
  | Tpat_or (a, b, _) -> catch_all_pat a || catch_all_pat b
  | _ -> false

(* ---------- main typedtree walk (D1, D2, N1, N2, H1, ...) ---------- *)

let check_ident (e : Typedtree.expression) path =
  let name = Path.name path in
  if d1_hit name && not (is_rng_ml ()) then
    report "D1" e.exp_loc
      (Printf.sprintf "'%s': randomness outside lib/engine/rng.ml; draw via a split Rng"
         name);
  if in_lib () && List.mem name d2_names then
    report "D2" e.exp_loc
      (Printf.sprintf "'%s': wall-clock/environment read breaks replay; thread the value in"
         name);
  if name = "Stdlib.Obj.magic" then
    report "N2" e.exp_loc "Obj.magic defeats the type system";
  if in_lib () && (not (in_parallel_lib ())) && p1_hit name then
    report "P1" e.exp_loc
      (Printf.sprintf
         "'%s': concurrency primitive outside lib/parallel; simulations must stay single-domain — go through the Parallel pool"
         name);
  if in_lib () && List.mem name r1_names then
    report "R1" e.exp_loc
      (Printf.sprintf
         "'%s': blocking/process-control call in lib/; deadlines, retry and backoff must go through the supervised-task API (Parallel.submit_supervised / Sim.set_budget)"
         name)

let check_expr (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (path, _, _) -> check_ident e path
  | Texp_apply ({ exp_desc = Texp_ident (path, _, _); exp_loc = floc; _ }, args)
    ->
      let name = Path.name path in
      let some_args =
        List.filter_map (function _, Some a -> Some a | _, None -> None) args
      in
      if
        List.mem name n1_fns
        && List.exists
             (fun (a : Typedtree.expression) -> is_float_ty a.exp_type)
             some_args
      then
        report "N1" floc
          (Printf.sprintf
             "structural '%s' on float operands is NaN-oblivious; use Float.equal/Float.compare/Float.min/Float.max or a tolerance"
             (Path.last path));
      if List.mem name u2_cmp_fns && List.exists is_rng_draw some_args then
        report "U2" floc
          (Printf.sprintf
             "'%s' against a raw Rng draw re-implements Bernoulli sampling; draw the decision with Rng.bernoulli on a Units.Prob.t"
             (Path.last path));
      if List.mem name truncators then begin
        if in_lib () && not (is_units_ml ()) then
          report "N3" floc
            (Printf.sprintf
               "'%s' in lib/ hides a rounding decision; use Units.Round.trunc/floor/ceil/nearest"
               (Path.last path));
        List.iter
          (fun a ->
            match unit_named_operand a with
            | Some operand ->
                report "U3" floc
                  (Printf.sprintf
                     "'%s' truncates unit-carrying '%s' without an explicit rounding mode; use Units.Round.trunc/floor/ceil/nearest"
                     (Path.last path) operand)
            | None -> ())
          some_args
      end
  | Texp_try (_, cases) ->
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          if c.c_guard = None && catch_all_pat c.c_lhs then
            report "H1" c.c_lhs.pat_loc
              "catch-all 'with _ ->' swallows every exception (incl. Out_of_memory, Stack_overflow); match specific exceptions")
        cases
  | _ -> ()

(* U1: a name that spells its unit but a type that has forgotten it. *)
let check_unit_name (loc : Location.t) name ty =
  if
    in_lib ()
    && (not (is_units_ml ()))
    && unit_suffixed name && is_float_ty ty
  then
    report "U1" loc
      (Printf.sprintf
         "'%s' names its unit but is a raw float; carry the unit in the type (Units.Time/Rate/Size/Pkts/Prob)"
         name)

(* W1: a raw-int window in lib/tcp.  Is this bytes or a wire field?
   Scaled or unscaled?  The name cannot say; the [Tcp_window] types can. *)
let check_window_name (loc : Location.t) name ty =
  if
    in_tcp_lib ()
    && (not (is_tcp_window_ml ()))
    && window_named name && is_int_ty ty
  then
    report "W1" loc
      (Printf.sprintf
         "'%s' is a raw int window in lib/tcp; window arithmetic must go through Tcp_window (Units.Size-typed, scale-aware)"
         name)

let check_binding_name loc name ty =
  check_unit_name loc name ty;
  check_window_name loc name ty

let check_type_decl (td : Typedtree.type_declaration) =
  match td.typ_kind with
  | Ttype_record lds ->
      List.iter
        (fun (ld : Typedtree.label_declaration) ->
          check_binding_name ld.ld_name.loc ld.ld_name.txt ld.ld_type.ctyp_type)
        lds
  | _ -> ()

let iterator =
  let open Tast_iterator in
  let expr sub (e : Typedtree.expression) =
    with_allows e.exp_attributes (fun () ->
        check_expr e;
        default_iterator.expr sub e)
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    with_allows vb.vb_attributes (fun () ->
        default_iterator.value_binding sub vb)
  in
  let pat : type k. iterator -> k Typedtree.general_pattern -> unit =
   fun sub p ->
    (match p.pat_desc with
    | Typedtree.Tpat_var (_, name) ->
        check_binding_name name.loc name.txt p.pat_type
    | Typedtree.Tpat_alias (_, _, name) ->
        check_binding_name name.loc name.txt p.pat_type
    | _ -> ());
    default_iterator.pat sub p
  in
  let type_declaration sub (td : Typedtree.type_declaration) =
    check_type_decl td;
    default_iterator.type_declaration sub td
  in
  let module_expr sub (me : Typedtree.module_expr) =
    (match me.mod_desc with
    | Tmod_ident (path, _) when d1_hit (Path.name path) && not (is_rng_ml ()) ->
        report "D1" me.mod_loc
          (Printf.sprintf "aliasing '%s' re-exports ambient randomness" (Path.name path))
    | Tmod_ident (path, _)
      when in_lib ()
           && (not (in_parallel_lib ()))
           && p1_hit (Path.name path) ->
        report "P1" me.mod_loc
          (Printf.sprintf "aliasing '%s' smuggles a concurrency primitive past lib/parallel"
             (Path.name path))
    | _ -> ());
    default_iterator.module_expr sub me
  in
  { default_iterator with expr; value_binding; module_expr; pat; type_declaration }

(* ---------- D3: module-toplevel mutable state (lib/ only) ----------

   Walks structure items; inside a toplevel binding it recurses through the
   evaluated spine of the expression but never under [fun]/[lazy], so state
   minted per call inside an explicit constructor is not flagged. *)

let rec d3_structure (s : Typedtree.structure) =
  List.iter d3_item s.str_items

and d3_item (it : Typedtree.structure_item) =
  match it.str_desc with
  | Tstr_value (_, vbs) -> List.iter d3_binding vbs
  | Tstr_module mb -> d3_module_expr mb.mb_expr
  | Tstr_recmodule mbs ->
      List.iter (fun (mb : Typedtree.module_binding) -> d3_module_expr mb.mb_expr) mbs
  | Tstr_include incl -> d3_module_expr incl.incl_mod
  | _ -> ()

and d3_module_expr (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure s -> d3_structure s
  | Tmod_constraint (me, _, _, _) -> d3_module_expr me
  | _ -> ()

and d3_binding (vb : Typedtree.value_binding) =
  with_allows vb.vb_attributes (fun () -> d3_expr vb.vb_expr)

and d3_expr (e : Typedtree.expression) =
  with_allows e.exp_attributes (fun () ->
      match e.exp_desc with
      | Texp_function _ | Texp_lazy _ -> ()
      | Texp_apply ({ exp_desc = Texp_ident (path, _, _); _ }, args) ->
          let name = Path.name path in
          if List.mem name d3_creators then
            report "D3" e.exp_loc
              (Printf.sprintf
                 "'%s' at module toplevel is shared mutable state — a replay/determinism hazard; mint it inside a constructor"
                 name)
          else
            List.iter (function _, Some a -> d3_expr a | _, None -> ()) args
      | Texp_record { fields; _ } ->
          if
            Array.exists
              (fun ((ld : Types.label_description), _) ->
                ld.lbl_mut = Asttypes.Mutable)
              fields
          then
            report "D3" e.exp_loc
              "record with mutable fields at module toplevel — mint it inside a constructor"
          else
            Array.iter
              (function
                | _, Typedtree.Overridden (_, a) -> d3_expr a
                | _, Typedtree.Kept _ -> ())
              fields
      | Texp_array _ ->
          report "D3" e.exp_loc
            "array literal at module toplevel is shared mutable state"
      | Texp_let (_, vbs, body) ->
          List.iter d3_binding vbs;
          d3_expr body
      | Texp_sequence (a, b) ->
          d3_expr a;
          d3_expr b
      | Texp_ifthenelse (c, t, f) ->
          d3_expr c;
          d3_expr t;
          Option.iter d3_expr f
      | Texp_tuple es | Texp_construct (_, _, es) -> List.iter d3_expr es
      | Texp_match (scrut, cases, _) ->
          d3_expr scrut;
          List.iter
            (fun (c : Typedtree.computation Typedtree.case) -> d3_expr c.c_rhs)
            cases
      | Texp_open (_, body) -> d3_expr body
      | _ -> ())

(* Run every expression-local rule over one loaded implementation.
   Arms the per-file state as a side effect. *)
let check_file (l : loaded) =
  enter_file l;
  if in_lib () && not (Sys.file_exists (Filename.remove_extension l.l_path ^ ".cmti"))
  then begin
    let pos =
      { Lexing.pos_fname = l.l_source; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 }
    in
    report "M1"
      { Location.loc_start = pos; loc_end = pos; loc_ghost = false }
      "lib/ module has no .mli; write one to pin its public surface"
  end;
  if in_lib () then d3_structure l.l_str;
  iterator.structure iterator l.l_str

(* ---------- S4: stale suppressions ---------- *)

(* Runs last: every family has credited the attributes that earn their
   keep by then.  S4 itself is not suppressible (delete the attribute). *)
let report_stale_allows () =
  registered_allows ()
  |> List.filter (fun e -> !(e.a_hits) = 0)
  |> List.sort (fun a b ->
         compare
           ( a.a_loc.Location.loc_start.pos_fname,
             a.a_loc.Location.loc_start.pos_lnum )
           ( b.a_loc.Location.loc_start.pos_fname,
             b.a_loc.Location.loc_start.pos_lnum ))
  |> List.iter (fun e ->
         report_in_scope [] "S4" e.a_loc
           (Printf.sprintf
              "[@lint.allow \"%s\"] suppresses no diagnostic; delete the stale \
               attribute"
              (String.concat " " e.a_rules)))

(* ---------- output ---------- *)

(* Stats go to stderr under --format=json so stdout stays a valid JSON
   document for tooling to parse. *)
let print_stats ~files =
  let oc = if !format_json then stderr else stdout in
  Printf.fprintf oc "\nrule  severity  count  description\n";
  Printf.fprintf oc "----  --------  -----  -----------\n";
  List.iter
    (fun r ->
      if List.mem r.id !enabled_rules then
        Printf.fprintf oc "%-4s  %-8s  %5d  %s\n" r.id
          (match r.severity with Err -> "error" | Warn -> "warning")
          (Option.value ~default:0 (Hashtbl.find_opt counts r.id))
          r.what)
    all_rules;
  Printf.fprintf oc "total: %d violation(s) across %d file(s)\n"
    (Hashtbl.fold (fun _ n acc -> n + acc) counts 0)
    files

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let print_json () =
  let item f =
    Printf.sprintf
      "  {\"file\": \"%s\", \"line\": %d, \"col\": %d, \"severity\": \"%s\", \
       \"rule\": \"%s\", \"message\": \"%s\"}"
      (json_escape f.f_file) f.f_line f.f_col f.f_severity f.f_rule
      (json_escape f.f_message)
  in
  print_string
    (match List.rev_map item !findings with
    | [] -> "[]\n"
    | items -> "[\n" ^ String.concat ",\n" items ^ "\n]\n")

let finish ~files =
  if !format_json then print_json ();
  if !stats then print_stats ~files;
  exit (if !error_total > 0 then 1 else 0)
