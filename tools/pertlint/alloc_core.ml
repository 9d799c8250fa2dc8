(* alloc_core — whole-program allocation-effect analysis (rules A1..A3).

   Per-function summaries are computed from the typedtree: every
   heap-allocating construct in a body is recorded as a *site* (record /
   tuple / non-constant constructor / array literal / lazy construction,
   closure creation and partial application, boxed floats from float
   options / float tuples / polymorphic min-max / computed float stores
   into mixed-representation records, calls into allocating stdlib
   entries), and every call to another analysable function becomes an
   *edge*.  Reachability from the [@alloc.zero]-annotated roots over the
   edges — the alias-following name resolution of Scan_graph makes
   the cross-module edges precise — then turns sites into findings:

     A1  any heap allocation reachable from an [@alloc.zero] root, with
         the call chain from the root in the diagnostic
     A2  boxed-float creation on such a path (float options, float
         tuples, floats into polymorphic min/max, computed float stores
         into non-flat records)
     A3  closure allocation inside a loop body on such a path (per-
         iteration closure rebuilds, partial applications in loops)

   Design decisions that keep the signal honest (see DESIGN.md §6):
   - The outermost lambda spine of a function is stripped: directly
     nested [fun]s compile to one n-ary closure, not one per layer.
   - A capture-free lambda is statically allocated — no site.
   - An anonymous lambda is charged where it is built; its body is not
     walked (it can only be *called* through a site that is itself
     charged).  A let-bound lambda gets its own node, so calls to it
     propagate its body's allocations; building it is still a site when
     it captures.
   - Allocations feeding [raise]/[invalid_arg]/[failwith] are exempt:
     error paths may allocate.
   - Recursive bodies and loop bodies are "per-iteration" contexts:
     closures built there are A3, not A1.
   - A float store into a mixed-representation record is only a boxing
     site when the stored value is *computed* (an application); storing
     an identifier/constant/field-read moves an existing pointer.
   - Stdlib entries come from a trusted table (nonalloc / iterator /
     allocating); anything unknown is conservatively allocating. *)

open Lint_core
open Scan_graph

(* ---------- the graph ---------- *)

type nkey = K_global of gref | K_local of int * string
(** Local keys carry the unit index: ident stamps are only unique within
    one compilation unit's .cmt. *)

type site = {
  st_rule : string;
  st_what : string;
  st_loc : Location.t;
  st_scope : allow_entry list;  (** allow scope snapshotted at the site *)
}

type body_shape =
  | B_fun of Typedtree.expression
  | B_alias of Path.t  (** [let f = Other.g] *)
  | B_opaque  (** arrow-typed binding we cannot see into *)

type node = {
  n_key : nkey;
  n_unit : int;  (** index of the defining unit in the prepared list *)
  n_name : string;  (** display name, e.g. "Heap.add" or "local 'loop'" *)
  n_loc : Location.t;
  n_annot : bool;  (** carries [@alloc.zero] *)
  n_rec : bool;
  n_attrs : Typedtree.attributes;
  n_body : body_shape;
  mutable n_sites : site list;
  mutable n_edges : nkey list;
}

let nodes : (nkey, node) Hashtbl.t = Hashtbl.create 512
let node_order : node list ref = ref []

(* Value-parameter count of a function body: directly nested single-case
   [fun]s form one n-ary lambda spine.  Used to tell a partial
   application (arg count < arity, allocates a closure) from a full
   application that merely *returns* a function value (no allocation —
   e.g. [Heap.pop_min_exn] handing back a stored event thunk). *)
(* Optional-argument defaults elaborate to a ghost
   [let x = match *opt* with ...] wrapped around the rest of the lambda
   spine (the typechecker tags it "#default"). Native compilation merges
   the whole spine into one n-ary closure, so the wrapper is part of the
   spine, not a nested function. *)
let is_default_elab (e : Typedtree.expression) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = "#default")
    e.exp_attributes

let rec skip_default_elab (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_let (_, _, body) when is_default_elab e -> skip_default_elab body
  | _ -> e

let rec spine_arity (e : Typedtree.expression) =
  match (skip_default_elab e).exp_desc with
  | Texp_function { cases = [ c ]; _ } -> 1 + spine_arity c.c_rhs
  | Texp_function _ -> 1
  | _ -> 0

let node_arity n =
  match n.n_body with B_fun lam -> Some (spine_arity lam) | _ -> None

let add_node n =
  Hashtbl.add nodes n.n_key n;
  node_order := n :: !node_order

let alloc_attr_name = "alloc.zero"

let has_alloc_zero (attrs : Typedtree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = alloc_attr_name)
    attrs

(* ---------- trusted stdlib tables ---------- *)

let tbl_of_list l =
  let h = Hashtbl.create (2 * List.length l) in
  List.iter (fun k -> Hashtbl.replace h k ()) l;
  h

(* Allocations in the arguments of these are error-path allocations. *)
let raise_heads =
  tbl_of_list
    [
      ("Stdlib", "raise");
      ("Stdlib", "raise_notrace");
      ("Stdlib", "invalid_arg");
      ("Stdlib", "failwith");
    ]

(* Polymorphic functions that box an unboxed float argument.  The
   comparison *operators* (=, <, compare, ...) are specialised by the
   compiler when the argument type is known to be float, so they do not
   appear here; [min]/[max] are ordinary functions and do. *)
let polycmp_heads = tbl_of_list [ ("Stdlib", "min"); ("Stdlib", "max") ]

(* Calls that allocate nothing.  Trust caveat (DESIGN.md §6): a
   float-returning entry here may still box its result when the caller
   keeps it; the dynamic minor-words budget cross-checks this. *)
let nonalloc_tbl =
  tbl_of_list
    (List.map (fun v -> ("Stdlib", v))
       [
         "+"; "-"; "*"; "/"; "mod"; "abs"; "succ"; "pred"; "land"; "lor";
         "lxor"; "lnot"; "lsl"; "lsr"; "asr"; "+."; "-."; "*."; "/."; "**";
         "~-."; "~+."; "~-"; "~+"; "sqrt"; "exp"; "log"; "log10"; "log1p";
         "expm1"; "sin"; "cos"; "tan"; "asin"; "acos"; "atan"; "atan2";
         "cosh"; "sinh"; "tanh"; "ceil"; "floor"; "abs_float"; "mod_float";
         "float_of_int"; "float"; "int_of_float"; "truncate"; "="; "<>"; "<";
         ">"; "<="; ">="; "=="; "!="; "compare"; "not"; "&&"; "||"; "&";
         "or"; "ignore"; "fst"; "snd"; "incr"; "decr"; "!"; ":=";
         "int_of_char"; "char_of_int"; "max_int"; "min_int"; "pred"; "succ";
       ]
    @ List.map (fun v -> ("Float", v))
        [
          "equal"; "compare"; "min"; "max"; "abs"; "neg"; "add"; "sub";
          "mul"; "div"; "rem"; "fma"; "sqrt"; "of_int"; "to_int"; "is_nan";
          "is_finite"; "is_integer"; "round"; "trunc"; "floor"; "ceil";
          "succ"; "pred"; "classify_float";
        ]
    @ List.map (fun v -> ("Int", v)) [ "equal"; "compare"; "min"; "max"; "abs" ]
    @ List.map (fun v -> ("Bool", v)) [ "equal"; "compare"; "not" ]
    @ List.map (fun v -> ("Char", v)) [ "equal"; "compare"; "code"; "chr" ]
    @ List.map (fun v -> ("Array", v))
        [
          "get"; "set"; "unsafe_get"; "unsafe_set"; "length"; "blit"; "fill";
          "sort"; "memq"; "mem";
        ]
    @ List.map (fun v -> ("Float_array", v))
        [ "get"; "set"; "unsafe_get"; "unsafe_set"; "length" ]
    @ List.map (fun v -> ("String", v))
        [ "length"; "get"; "unsafe_get"; "equal"; "compare" ]
    @ List.map (fun v -> ("Bytes", v))
        [ "get"; "set"; "length"; "unsafe_get"; "unsafe_set"; "blit"; "fill" ]
    @ List.map (fun v -> ("List", v))
        [ "length"; "hd"; "tl"; "mem"; "memq"; "is_empty"; "nth"; "compare_lengths" ]
    @ List.map (fun v -> ("Hashtbl", v))
        [ "mem"; "length"; "remove"; "reset"; "clear"; "find" ]
    @ List.map (fun v -> ("Queue", v))
        [ "length"; "is_empty"; "clear"; "peek"; "pop"; "take" ]
    @ List.map (fun v -> ("Option", v))
        [ "is_some"; "is_none"; "get"; "value"; "equal"; "compare" ]
    @ List.map (fun v -> ("Obj", v))
        [ "magic"; "repr"; "obj"; "tag"; "is_int"; "is_block" ]
    (* Random draws are trusted-nonalloc by fiat: the generator mutates
       state in place and the float results are unboxed by the caller on
       the paths we gate.  DESIGN.md §6 carries the caveat. *)
    @ List.map (fun v -> ("Random", v)) [ "float"; "int"; "bool"; "bits"; "full_int" ]
    @ List.map (fun v -> ("State", v)) [ "float"; "int"; "bool"; "bits"; "full_int" ]
    @ List.map (fun v -> ("Atomic", v)) [ "get"; "set"; "incr"; "decr"; "fetch_and_add"; "compare_and_set" ]
    @ List.map (fun v -> ("Mutex", v)) [ "lock"; "unlock"; "try_lock" ])

(* Higher-order stdlib entries whose lambda arguments run per element:
   descend into those bodies as loop bodies. *)
let iterator_tbl =
  tbl_of_list
    (List.map (fun v -> ("Array", v))
       [ "iter"; "iteri"; "fold_left"; "fold_right"; "exists"; "for_all" ]
    @ List.map (fun v -> ("List", v))
        [ "iter"; "iteri"; "fold_left"; "fold_right"; "exists"; "for_all" ]
    @ [ ("Queue", "iter"); ("Hashtbl", "iter"); ("Hashtbl", "fold") ]
    @ List.map (fun v -> ("Option", v)) [ "iter"; "fold"; "map" ]
    @ [ ("Fun", "protect") ])

let allocating_tbl =
  tbl_of_list
    (List.map (fun v -> ("Stdlib", v))
       [
         "ref"; "^"; "@"; "string_of_int"; "string_of_float";
         "string_of_bool"; "print_string"; "print_endline"; "print_newline";
         "print_int"; "print_float"; "prerr_string"; "prerr_endline";
         "read_line"; "open_out"; "open_in";
       ]
    @ List.map (fun v -> ("Array", v))
        [
          "make"; "init"; "copy"; "append"; "sub"; "of_list"; "to_list";
          "map"; "mapi"; "create_float"; "make_matrix"; "concat"; "split";
          "combine";
        ]
    @ List.map (fun v -> ("List", v))
        [
          "map"; "mapi"; "rev"; "rev_map"; "filter"; "filter_map"; "concat";
          "append"; "init"; "sort"; "stable_sort"; "fast_sort"; "sort_uniq";
          "find_opt"; "assoc_opt"; "assq_opt"; "split"; "combine"; "flatten";
          "concat_map"; "partition"; "cons"; "merge"; "nth_opt";
        ]
    @ List.map (fun v -> ("String", v))
        [
          "make"; "init"; "sub"; "concat"; "cat"; "split_on_char"; "map";
          "trim"; "uppercase_ascii"; "lowercase_ascii"; "of_bytes"; "to_bytes";
        ]
    @ List.map (fun v -> ("Bytes", v))
        [ "create"; "make"; "copy"; "sub"; "of_string"; "to_string"; "extend"; "init" ]
    @ List.map (fun v -> ("Hashtbl", v))
        [
          "create"; "add"; "replace"; "copy"; "find_opt"; "find_all"; "fold";
          "to_seq"; "to_seq_keys"; "to_seq_values"; "of_seq"; "filter_map_inplace";
        ]
    @ List.map (fun v -> ("Queue", v)) [ "create"; "add"; "push"; "copy"; "of_seq" ]
    @ List.map (fun v -> ("Option", v)) [ "some"; "bind"; "join"; "to_list"; "to_seq" ]
    @ List.map (fun v -> ("Stack", v)) [ "create"; "push" ]
    @ List.map (fun v -> ("Float", v)) [ "to_string"; "of_string"; "of_string_opt" ]
    @ List.map (fun v -> ("Random", v)) [ "get_state"; "set_state"; "split"; "make"; "make_self_init" ]
    @ [ ("State", "make"); ("State", "copy"); ("State", "split") ])

(* Everything in these modules allocates (format strings, sequences,
   GC stats records, ...). *)
let wildcard_alloc_mods =
  tbl_of_list [ "Printf"; "Format"; "Scanf"; "Seq"; "Buffer"; "Gc"; "Marshal"; "Sys"; "Filename"; "Arg"; "Unix"; "Out_channel"; "In_channel"; "Domain"; "Lazy"; "Fun"; "Printexc"; "Digest"; "Sexplib"; "Str" ]

(* ---------- registration (pass A) ---------- *)

let display_local name = Printf.sprintf "local '%s'" name

let register_unit ~idx ctx (l : loaded) =
  let add ~key ~name ~loc ~annot ~recflag ~attrs ~body =
    if not (Hashtbl.mem nodes key) then
      add_node
        {
          n_key = key;
          n_unit = idx;
          n_name = name;
          n_loc = loc;
          n_annot = annot;
          n_rec = recflag;
          n_attrs = attrs;
          n_body = body;
          n_sites = [];
          n_edges = [];
        }
  in
  let toplevel_binding qual recflag (vb : Typedtree.value_binding) =
    match binding_var vb.vb_pat with
    | None -> ()
    | Some (id, name) ->
        let key = K_global (qual, Ident.name id) in
        let display = qual ^ "." ^ Ident.name id in
        let annot = has_alloc_zero vb.vb_attributes in
        let mk body =
          add ~key ~name:display ~loc:name.loc ~annot ~recflag
            ~attrs:vb.vb_attributes ~body
        in
        (match vb.vb_expr.exp_desc with
        | Texp_function _ -> mk (B_fun vb.vb_expr)
        | Texp_ident (p, _, _) when is_arrow_ty vb.vb_pat.pat_type ->
            mk (B_alias p)
        | _ when is_arrow_ty vb.vb_pat.pat_type -> mk B_opaque
        | _ -> ())
  in
  let rec items qual (its : Typedtree.structure_item list) =
    List.iter
      (fun (it : Typedtree.structure_item) ->
        match it.str_desc with
        | Tstr_value (rf, vbs) ->
            List.iter (toplevel_binding qual (rf = Asttypes.Recursive)) vbs
        | Tstr_module mb -> (
            let name =
              match mb.mb_id with Some id -> Ident.name id | None -> "_"
            in
            match mb.mb_expr.mod_desc with
            | Tmod_structure s
            | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) ->
                items name s.str_items
            | _ -> ())
        | _ -> ())
      its
  in
  items ctx.x_mod l.l_str.str_items;
  (* Local let-bound lambdas anywhere in the unit get their own nodes so
     calls to them propagate their bodies' allocations. *)
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_let (rf, vbs, _) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match (binding_var vb.vb_pat, vb.vb_expr.exp_desc) with
            | Some (id, name), Texp_function _ ->
                add
                  ~key:(K_local (idx, Ident.unique_name id))
                  ~name:(display_local (Ident.name id))
                  ~loc:name.loc
                  ~annot:(has_alloc_zero vb.vb_attributes)
                  ~recflag:(rf = Asttypes.Recursive)
                  ~attrs:vb.vb_attributes ~body:(B_fun vb.vb_expr)
            | _ -> ())
          vbs
    | _ -> ());
    Tast_iterator.(default_iterator.expr) sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.structure iter l.l_str

(* ---------- body walk (pass B) ---------- *)

(* Free local idents a lambda closes over.  Toplevel idents classify as
   globals (reached through the closure's environment slot only when
   local), so a lambda mentioning only globals is capture-free, hence
   statically allocated. *)
let capture_count ctx (lam : Typedtree.expression) =
  let bound = bound_idents lam in
  let caps = ref [] in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        match classify_path ctx p with
        | Local id
          when (not (mem_ident id bound)) && not (mem_ident id !caps) ->
            caps := id :: !caps
        | _ -> ())
    | _ -> ());
    Tast_iterator.(default_iterator.expr) sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.expr iter lam;
  List.length !caps

(* A store of this expression into a float slot mints a new box; an
   identifier / constant / field read moves an existing pointer. *)
let rec rhs_computed (v : Typedtree.expression) =
  match v.exp_desc with
  | Texp_apply _ -> true
  | Texp_ifthenelse (_, t, f) ->
      rhs_computed t || Option.fold ~none:false ~some:rhs_computed f
  | Texp_sequence (_, b)
  | Texp_open (_, b)
  | Texp_let (_, _, b) ->
      rhs_computed b
  | Texp_match (_, cases, _) ->
      List.exists
        (fun (c : Typedtree.computation Typedtree.case) -> rhs_computed c.c_rhs)
        cases
  | _ -> false

let flat_float_store (lbl : Types.label_description) =
  match lbl.lbl_repres with Types.Record_float -> true | _ -> false

let walk_node ~idx ctx (n : node) =
  let loop0 = if n.n_rec then 1 else 0 in
  let loop_depth = ref loop0 in
  let raise_depth = ref 0 in
  let add_site rule what loc =
    if !raise_depth = 0 then
      n.n_sites <-
        {
          st_rule = rule;
          st_what = what;
          st_loc = loc;
          st_scope = current_allow_scope ();
        }
        :: n.n_sites
  in
  let add_edge k = if !raise_depth = 0 then n.n_edges <- k :: n.n_edges in
  let closure_rule () = if !loop_depth > 0 then "A3" else "A1" in
  let in_loop f =
    incr loop_depth;
    Fun.protect ~finally:(fun () -> decr loop_depth) f
  in
  let in_raise f =
    incr raise_depth;
    Fun.protect ~finally:(fun () -> decr raise_depth) f
  in
  let charge_closure what (lam : Typedtree.expression) =
    let ncaps = capture_count ctx lam in
    if ncaps > 0 then
      add_site (closure_rule ())
        (Printf.sprintf
           (if !loop_depth > 0 then
              "per-iteration %s rebuilds a closure capturing %d variable(s)"
            else "%s allocates a closure capturing %d variable(s)")
           what ncaps)
        lam.exp_loc
  in
  let rec walk (e : Typedtree.expression) =
    with_allows e.exp_attributes (fun () -> walk_desc e)
  and fallback e =
    let it =
      { Tast_iterator.default_iterator with expr = (fun _ x -> walk x) }
    in
    Tast_iterator.(default_iterator.expr) it e
  and walk_fn_bodies (e : Typedtree.expression) =
    (* strip the lambda spine: directly nested single-case functions are
       one n-ary closure *)
    match e.exp_desc with
    | Texp_function { cases; _ } ->
        List.iter
          (fun (c : Typedtree.value Typedtree.case) ->
            Option.iter walk c.c_guard;
            walk_fn_bodies c.c_rhs)
          cases
    | Texp_let (_, vbs, body) when is_default_elab e ->
        (* Optional-default wrapper: the default expressions do run in the
           callee, so they are walked; the binding itself is spine. *)
        List.iter (fun (vb : Typedtree.value_binding) -> walk vb.vb_expr) vbs;
        walk_fn_bodies body
    | _ -> walk e
  and walk_desc (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident _ | Texp_constant _ -> ()
    | Texp_function _ -> charge_closure "anonymous function" e
    | Texp_apply (head, args) -> walk_apply e head args
    | Texp_let (_, vbs, body) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match (binding_var vb.vb_pat, vb.vb_expr.exp_desc) with
            | Some (_, name), Texp_function _ ->
                (* body walked under its own K_local node *)
                charge_closure
                  (Printf.sprintf "local function '%s'" name.txt)
                  vb.vb_expr
            | _ ->
                with_allows vb.vb_attributes (fun () -> walk vb.vb_expr))
          vbs;
        walk body
    | Texp_record { fields; extended_expression; _ } ->
        add_site "A1" "record construction" e.exp_loc;
        Option.iter walk extended_expression;
        Array.iter
          (function
            | _, Typedtree.Overridden (_, x) -> walk x
            | _, Typedtree.Kept _ -> ())
          fields
    | Texp_tuple es ->
        (if
           List.exists
             (fun (x : Typedtree.expression) -> is_float_ty x.exp_type)
             es
         then add_site "A2" "tuple with float component(s) boxes each float" e.exp_loc
         else add_site "A1" "tuple construction" e.exp_loc);
        List.iter walk es
    | Texp_construct (_, cd, es) ->
        (if es <> [] then
           if
             cd.cstr_name = "Some"
             && List.exists
                  (fun (x : Typedtree.expression) -> is_float_ty x.exp_type)
                  es
           then
             add_site "A2" "'Some' of a float allocates an option cell around a boxed float"
               e.exp_loc
           else
             add_site "A1"
               (Printf.sprintf "constructor '%s' allocation" cd.cstr_name)
               e.exp_loc);
        List.iter walk es
    | Texp_variant (_, arg) ->
        Option.iter
          (fun (x : Typedtree.expression) ->
            add_site "A1" "polymorphic-variant allocation" e.exp_loc;
            walk x)
          arg
    | Texp_array es ->
        add_site "A1" "array literal allocation" e.exp_loc;
        List.iter walk es
    | Texp_lazy x ->
        add_site "A1" "lazy-thunk allocation" e.exp_loc;
        walk x
    | Texp_setfield (b, _, lbl, v) ->
        if
          is_float_ty lbl.lbl_arg
          && (not (flat_float_store lbl))
          && rhs_computed v
        then
          add_site "A2"
            (Printf.sprintf
               "computed float stored into mixed-representation field '%s' is boxed"
               lbl.lbl_name)
            e.exp_loc;
        walk b;
        walk v
    | Texp_field (b, _, _) -> walk b
    | Texp_sequence (a, b) ->
        walk a;
        walk b
    | Texp_ifthenelse (c, t, f) ->
        walk c;
        walk t;
        Option.iter walk f
    | Texp_match (scrut, cases, _) ->
        walk scrut;
        List.iter
          (fun (c : Typedtree.computation Typedtree.case) ->
            Option.iter walk c.c_guard;
            walk c.c_rhs)
          cases
    | Texp_try (b, cases) ->
        walk b;
        List.iter
          (fun (c : Typedtree.value Typedtree.case) ->
            Option.iter walk c.c_guard;
            walk c.c_rhs)
          cases
    | Texp_while (c, b) ->
        walk c;
        in_loop (fun () -> walk b)
    | Texp_for (_, _, lo, hi, _, b) ->
        walk lo;
        walk hi;
        in_loop (fun () -> walk b)
    | Texp_open (_, b) -> walk b
    | Texp_assert (b, _) -> walk b
    | _ -> fallback e
  and walk_apply e (head : Typedtree.expression) args =
    let some_args = List.filter_map (fun (_, a) -> a) args in
    let float_arg () =
      List.exists
        (fun (a : Typedtree.expression) -> is_float_ty a.exp_type)
        some_args
    in
    let charge_partial ?arity () =
      let partial =
        match arity with
        | Some a -> List.length some_args < a
        | None -> is_arrow_ty e.exp_type
      in
      if partial then
        add_site (closure_rule ())
          (if !loop_depth > 0 then
             "per-iteration partial application builds a closure"
           else "partial application builds a closure")
          e.exp_loc
    in
    let walk_args () = List.iter walk some_args in
    let unknown_call what =
      add_site "A1" what e.exp_loc;
      walk_args ()
    in
    match head.exp_desc with
    | Texp_ident (p, _, _) -> (
        match classify_path ctx p with
        | G ("Stdlib", "@@") -> (
            match some_args with
            | [ f; x ] -> walk_apply e f [ (Asttypes.Nolabel, Some x) ]
            | _ -> walk_args ())
        | G ("Stdlib", "|>") -> (
            match some_args with
            | [ x; f ] -> walk_apply e f [ (Asttypes.Nolabel, Some x) ]
            | _ -> walk_args ())
        | G r when Hashtbl.mem raise_heads r -> in_raise walk_args
        | G r -> (
            match Hashtbl.find_all nodes (K_global r) with
            | nd :: _ ->
                add_edge (K_global r);
                charge_partial ?arity:(node_arity nd) ();
                walk_args ()
            | [] ->
                if Hashtbl.mem polycmp_heads r && float_arg () then begin
                  add_site "A2"
                    (Printf.sprintf
                       "float passed to polymorphic '%s' is boxed" (snd r))
                    e.exp_loc;
                  walk_args ()
                end
                else if Hashtbl.mem iterator_tbl r then begin
                  charge_partial ();
                  List.iter
                    (fun (a : Typedtree.expression) ->
                      match a.exp_desc with
                      | Texp_function _ ->
                          charge_closure "iteration function" a;
                          in_loop (fun () -> walk_fn_bodies a)
                      | _ -> walk a)
                    some_args
                end
                else if Hashtbl.mem nonalloc_tbl r then begin
                  charge_partial ();
                  walk_args ()
                end
                else if Hashtbl.mem allocating_tbl r then
                  unknown_call
                    (Printf.sprintf "call to allocating '%s'" (gref_str r))
                else if Hashtbl.mem wildcard_alloc_mods (fst r) then
                  unknown_call
                    (Printf.sprintf "call into allocating module '%s'" (fst r))
                else
                  unknown_call
                    (Printf.sprintf
                       "call to unanalysed function '%s' (assumed allocating)"
                       (gref_str r)))
        | Local id -> (
            let k = K_local (idx, Ident.unique_name id) in
            match Hashtbl.find_opt nodes k with
            | Some nd ->
                add_edge k;
                charge_partial ?arity:(node_arity nd) ();
                walk_args ()
            | None ->
                unknown_call
                  (Printf.sprintf
                     "call through unknown function '%s' (assumed allocating)"
                     (Ident.name id)))
        | Opaque ->
            unknown_call "call through a computed function (assumed allocating)")
    | Texp_field (b, _, lbl) ->
        add_site "A1"
          (Printf.sprintf
             "call through function-typed field '%s' (assumed allocating)"
             lbl.lbl_name)
          e.exp_loc;
        walk b;
        walk_args ()
    | _ ->
        walk head;
        walk_args ()
  in
  with_allows n.n_attrs (fun () ->
      match n.n_body with
      | B_fun lam -> walk_fn_bodies lam
      | B_alias p -> (
          match classify_path ctx p with
          | G r ->
              if Hashtbl.mem nodes (K_global r) then add_edge (K_global r)
              else if
                Hashtbl.mem nonalloc_tbl r
                || Hashtbl.mem iterator_tbl r
                || Hashtbl.mem polycmp_heads r
              then ()
              else
                add_site "A1"
                  (Printf.sprintf "aliases allocating or unanalysed '%s'"
                     (gref_str r))
                  n.n_loc
          | Local id ->
              let k = K_local (idx, Ident.unique_name id) in
              if Hashtbl.mem nodes k then add_edge k
              else
                add_site "A1"
                  (Printf.sprintf
                     "aliases unknown function '%s' (assumed allocating)"
                     (Ident.name id))
                  n.n_loc
          | Opaque ->
              add_site "A1" "aliases a computed function (assumed allocating)"
                n.n_loc)
      | B_opaque ->
          add_site "A1"
            "function-typed binding pertalloc cannot analyse (assumed allocating)"
            n.n_loc);
  n.n_sites <- List.rev n.n_sites;
  n.n_edges <- List.rev n.n_edges

(* ---------- reachability + reporting ---------- *)

let loc_key (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_fname, p.pos_lnum, p.pos_cnum - p.pos_bol)

(* Per-root breadth-first walk over the call edges.  A site is reported
   once, for the first root that reaches it; every later visit still
   credits the allow that covers it, so S4 sees each live A-rule allow
   whichever rule or root it serves. *)
let report_reachable () =
  let emitted : (string * int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let roots =
    List.rev !node_order
    |> List.filter (fun n -> n.n_annot)
    |> List.sort (fun a b -> compare (loc_key a.n_loc) (loc_key b.n_loc))
  in
  List.iter
    (fun root ->
      let visited : (nkey, unit) Hashtbl.t = Hashtbl.create 64 in
      let queue = Queue.create () in
      Queue.add (root.n_key, [ root.n_name ]) queue;
      Hashtbl.replace visited root.n_key ();
      while not (Queue.is_empty queue) do
        let key, path = Queue.take queue in
        List.iter
          (fun n ->
            List.iter
              (fun s ->
                if Hashtbl.mem emitted (loc_key s.st_loc) then
                  ignore (scope_allows s.st_scope s.st_rule)
                else begin
                  (* reserved even when the site is allowed or its rule
                     filtered out: it must not resurface under a later
                     root *)
                  Hashtbl.replace emitted (loc_key s.st_loc) ();
                  let chain =
                    match path with
                    | [] | [ _ ] -> "directly in the annotated body"
                    | p ->
                        "call chain: "
                        ^ String.concat " -> " (take 6 p)
                  in
                  report_in_scope s.st_scope s.st_rule s.st_loc
                    (Printf.sprintf
                       "%s — on the zero-alloc path from [@alloc.zero] '%s' (%s)"
                       s.st_what root.n_name chain)
                end)
              n.n_sites;
            List.iter
              (fun k ->
                if not (Hashtbl.mem visited k) then begin
                  Hashtbl.replace visited k ();
                  match Hashtbl.find_all nodes k with
                  | [] -> ()
                  | n' :: _ -> Queue.add (k, path @ [ n'.n_name ]) queue
                end)
              n.n_edges)
          (Hashtbl.find_all nodes key)
      done)
    roots

(* ---------- entry point ---------- *)

let run (prepared : (loaded * unit_ctx) list) =
  Hashtbl.reset nodes;
  node_order := [];
  List.iteri (fun idx (l, ctx) -> register_unit ~idx ctx l) prepared;
  let by_unit = Array.of_list prepared in
  (* Walk unit by unit so the per-file allow scope is armed once per
     unit, not once per node. *)
  Array.iteri
    (fun idx (l, ctx) ->
      enter_file l;
      List.iter
        (fun n -> if n.n_unit = idx then walk_node ~idx ctx n)
        (List.rev !node_order))
    by_unit;
  report_reachable ()
