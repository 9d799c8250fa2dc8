(* scan_graph — the cross-module name-resolution layer shared by the
   whole-program rule families (Scan_core, Alloc_core).

   Both work over every .cmt in scope at once and need the same
   plumbing: normalising dune-wrapped unit names, resolving module
   aliases, telling a toplevel value from a local, and harvesting the
   per-unit context (alias map + toplevel idents) in a prepass before
   any body is analysed.  Scan_core layers race/taint/export analyses on
   top; Alloc_core layers allocation-effect summaries.  Keeping the
   resolution rules here keeps the two families' views of "which
   function is this call naming" identical. *)

(* ---------- name normalisation ---------- *)

(* "Experiments__Output" (a dune-wrapped compilation unit) and "Output"
   (the same module through its library alias) must compare equal. *)
let norm_mod m =
  let n = String.length m in
  let rec last_sep i best =
    if i >= n - 1 then best
    else if m.[i] = '_' && m.[i + 1] = '_' then last_sep (i + 2) (Some (i + 2))
    else last_sep (i + 1) best
  in
  match last_sep 0 None with
  | Some i when i < n -> String.sub m i (n - i)
  | _ -> m

(* A global reference: (normalised defining-module basename, value name). *)
type gref = string * string

let gref_str (m, v) = m ^ "." ^ v

(* ---------- type predicates ---------- *)

let rec is_arrow_ty ty =
  match Types.get_desc ty with
  | Tarrow _ -> true
  | Tlink t | Tsubst (t, _) -> is_arrow_ty t
  | Tpoly (t, _) -> is_arrow_ty t
  | _ -> false

(* ---------- path classification ---------- *)

(* Per-unit alias map: [module T = Netsim.Topology] makes "T" mean
   "Topology" for use-resolution. *)
type unit_ctx = {
  x_mod : string;
  x_aliases : (string, string) Hashtbl.t;
  x_toplevel : (Ident.t, string) Hashtbl.t;
      (** toplevel value idents of this unit -> qualified-as module *)
}

let resolve_alias ctx m =
  let rec go m seen =
    if List.mem m seen then m
    else
      match Hashtbl.find_opt ctx.x_aliases m with
      | Some t -> go t (m :: seen)
      | None -> m
  in
  go (norm_mod m) []

(* Classify an identifier path: a global (qualifier, name) or a local.
   Matching on Path constructors (not on [Path.name] strings) keeps
   operator names like [+.] intact. *)
type idkind = G of gref | Local of Ident.t | Opaque

let path_last_mod (p : Path.t) =
  match p with
  | Path.Pident id -> Ident.name id
  | Path.Pdot (_, s) -> s
  | _ -> "?"

let classify_path ctx (p : Path.t) : idkind =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt ctx.x_toplevel id with
      | Some qual -> G (qual, Ident.name id)
      | None -> Local id)
  | Path.Pdot (pre, v) -> G (resolve_alias ctx (path_last_mod pre), v)
  | _ -> Opaque

(* ---------- pattern helpers ---------- *)

(* All idents bound by patterns inside [e] (including function params). *)
let bound_idents (e : Typedtree.expression) =
  let acc = ref [] in
  let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit
      =
   fun sub p ->
    (match p.pat_desc with
    | Typedtree.Tpat_var (id, _) -> acc := id :: !acc
    | Typedtree.Tpat_alias (_, id, _) -> acc := id :: !acc
    | _ -> ());
    Tast_iterator.(default_iterator.pat) sub p
  in
  let iter = { Tast_iterator.default_iterator with pat } in
  iter.expr iter e;
  !acc

let mem_ident id ids = List.exists (fun b -> Ident.same b id) ids

(* The variable a simple binding introduces.  A type-constrained binding
   ([let cache : t = ...]) reaches the typedtree as [Tpat_alias] over
   [Tpat_any], not [Tpat_var]. *)
let binding_var (p : Typedtree.pattern) =
  match p.pat_desc with
  | Typedtree.Tpat_var (id, name) -> Some (id, name)
  | Typedtree.Tpat_alias (_, id, name) -> Some (id, name)
  | _ -> None

let pat_idents : type k. k Typedtree.general_pattern -> Ident.t list =
 fun p ->
  let acc = ref [] in
  let pat : type k2. Tast_iterator.iterator -> k2 Typedtree.general_pattern -> unit
      =
   fun sub q ->
    (match q.pat_desc with
    | Typedtree.Tpat_var (id, _) -> acc := id :: !acc
    | Typedtree.Tpat_alias (_, id, _) -> acc := id :: !acc
    | _ -> ());
    Tast_iterator.(default_iterator.pat) sub q
  in
  let iter = { Tast_iterator.default_iterator with pat } in
  iter.pat iter p;
  !acc

(* ---------- misc ---------- *)

let loc_str (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.pos_fname loc.loc_start.pos_lnum

let take n xs = List.filteri (fun i _ -> i < n) xs

(* ---------- per-unit prepass ---------- *)

(* Build the unit context: toplevel value idents, module aliases and
   (via the callback) mutable-record type declarations, also harvested
   for nested modules, qualified by the submodule basename as uses will
   be.  The caller must run this over *every* unit before analysing any
   body, so cross-module lookups see a complete picture. *)
let build_ctx ?(on_mutable_record = fun (_ : gref) -> ())
    ~modname (str : Typedtree.structure) =
  let ctx =
    {
      x_mod = norm_mod modname;
      x_aliases = Hashtbl.create 8;
      x_toplevel = Hashtbl.create 32;
    }
  in
  let rec pre qual (items : Typedtree.structure_item list) =
    List.iter
      (fun (it : Typedtree.structure_item) ->
        match it.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match binding_var vb.vb_pat with
                | Some (id, _) -> Hashtbl.replace ctx.x_toplevel id qual
                | None -> ())
              vbs
        | Tstr_module mb -> (
            let name =
              match mb.mb_id with Some id -> Ident.name id | None -> "_"
            in
            match mb.mb_expr.mod_desc with
            | Tmod_ident (p, _)
            | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _)
              -> (
                match List.rev (String.split_on_char '.' (Path.name p)) with
                | target :: _ ->
                    Hashtbl.replace ctx.x_aliases name (norm_mod target)
                | [] -> ())
            | Tmod_structure s
            | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _)
              ->
                pre name s.str_items
            | _ -> ())
        | Tstr_type (_, tds) ->
            List.iter
              (fun (td : Typedtree.type_declaration) ->
                match td.typ_kind with
                | Ttype_record lds
                  when List.exists
                         (fun (ld : Typedtree.label_declaration) ->
                           ld.ld_mutable = Asttypes.Mutable)
                         lds ->
                    on_mutable_record (qual, td.typ_name.txt)
                | _ -> ())
              tds
        | _ -> ())
      items
  in
  pre ctx.x_mod str.str_items;
  ctx
