open Parsetree

let global_ref =
  Diag.rule ~id:"domain/global-ref" ~severity:Diag.Error
    ~doc:
      "A top-level ref cell is shared by every Par.Pool worker domain; \
       allocate state per call, use Atomic, or suppress with the guarding \
       discipline spelled out."

let global_mutable =
  Diag.rule ~id:"domain/global-mutable" ~severity:Diag.Error
    ~doc:
      "A top-level mutable container (Hashtbl, Queue, Buffer, Stack, \
       array, bytes) is shared by every worker domain; allocate per call \
       or suppress with the guarding discipline spelled out."

let dls =
  Diag.rule ~id:"domain/dls" ~severity:Diag.Error
    ~doc:
      "Domain-local storage is reserved for lib/telemetry and lib/par; \
       anywhere else it hides per-domain state the pool cannot propagate."

let spawn =
  Diag.rule ~id:"domain/spawn" ~severity:Diag.Error
    ~doc:
      "Domain.spawn is reserved for lib/par: raw domains bypass the pool's \
       ordering, fault-isolation, telemetry-inheritance and scheduler- \
       observability contracts — go through Par.Pool instead."

let rules = [ global_ref; global_mutable; dls; spawn ]

let mutable_ctor_idents =
  [ "Hashtbl.create"; "Queue.create"; "Buffer.create"; "Stack.create";
    "Array.make"; "Array.init"; "Array.create_float"; "Bytes.create";
    "Bytes.make" ]

let dls_allowed_libs = [ "telemetry"; "par" ]

(* A binding whose RHS is a function only allocates when called; the rules
   target state allocated once at module initialisation. *)
let rec is_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, body) -> is_function body
  | Pexp_constraint (body, _) -> is_function body
  | _ -> false

let check (src : Source.t) =
  let out = ref [] in
  let emit rule loc detail =
    let line, col = Source.line_col loc in
    out := Diag.make ~loc:src.Source.path ~line ~col rule detail :: !out
  in
  (* --- top-level mutable state, descending into nested modules --- *)
  let scan_binding_rhs e =
    let visit sub =
      match sub.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> begin
          match Source.ident_name txt with
          | "ref" | "Stdlib.ref" ->
            emit global_ref sub.pexp_loc
              "ref cell allocated at module initialisation"
          | name when List.mem name mutable_ctor_idents ->
            emit global_mutable sub.pexp_loc
              (name ^ " allocated at module initialisation")
          | _ -> ()
        end
      | _ -> ()
    in
    (* Function bodies allocate per call (a DLS-key initialiser's ref is
       per-domain), so descent stops there; [lazy] merely defers the one
       shared allocation and is still scanned. *)
    let it =
      { Ast_iterator.default_iterator with
        Ast_iterator.expr =
          (fun self sub ->
             match sub.pexp_desc with
             | Pexp_fun _ | Pexp_function _ -> ()
             | _ ->
               visit sub;
               Ast_iterator.default_iterator.Ast_iterator.expr self sub) }
    in
    it.Ast_iterator.expr it e
  in
  let rec scan_structure str = List.iter scan_item str
  and scan_item item =
    match item.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun vb -> if not (is_function vb.pvb_expr) then scan_binding_rhs vb.pvb_expr)
        vbs
    | Pstr_module mb -> scan_module_expr mb.pmb_expr
    | Pstr_recmodule mbs ->
      List.iter (fun mb -> scan_module_expr mb.pmb_expr) mbs
    | Pstr_include incl -> scan_module_expr incl.pincl_mod
    | _ -> ()
  and scan_module_expr me =
    match me.pmod_desc with
    | Pmod_structure str -> scan_structure str
    | Pmod_constraint (me, _) -> scan_module_expr me
    (* a functor body re-allocates per application — not module-global *)
    | _ -> ()
  in
  if src.Source.zone = Source.Lib then scan_structure src.Source.ast;
  (* --- Domain.DLS outside the libraries that own worker machinery --- *)
  let dls_allowed =
    match src.Source.lib with
    | Some lib -> List.mem lib dls_allowed_libs
    | None -> src.Source.zone <> Source.Lib && src.Source.zone <> Source.Bin
  in
  if not dls_allowed then
    Source.iter_exprs src.Source.ast (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt; _ } ->
          let name = Source.ident_name txt in
          if String.length name >= 11 && String.sub name 0 11 = "Domain.DLS."
          then emit dls e.pexp_loc ("use of " ^ name)
        | _ -> ());
  (* --- raw Domain.spawn outside the pool library --- *)
  let spawn_allowed =
    match src.Source.lib with
    | Some lib -> String.equal lib "par"
    | None -> src.Source.zone <> Source.Lib && src.Source.zone <> Source.Bin
  in
  if not spawn_allowed then
    Source.iter_exprs src.Source.ast (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt; _ } ->
          let name = Source.ident_name txt in
          if String.equal name "Domain.spawn" then
            emit spawn e.pexp_loc "use of Domain.spawn"
        | _ -> ());
  Diag.sort !out
