open Parsetree

let catchall_swallow =
  Diag.rule ~id:"err/catchall-swallow" ~severity:Diag.Error
    ~doc:
      "A catch-all exception handler that neither re-raises nor fails \
       hides real faults (including Par.Pool task errors); match the \
       exceptions you expect, or re-raise the rest."

let assert_false =
  Diag.rule ~id:"err/assert-false" ~severity:Diag.Warning
    ~doc:
      "assert false is an unrecoverable trap with no message; prefer a \
       typed error (invalid_arg, Error) or suppress with the invariant \
       that makes the branch unreachable spelled out."

let exit_in_lib =
  Diag.rule ~id:"err/exit-in-lib" ~severity:Diag.Error
    ~doc:
      "exit belongs to executables; library code must raise and let the \
       caller decide the process's fate."

let rules = [ catchall_swallow; assert_false; exit_in_lib ]

(* Identifiers whose presence in a handler body means the handler does not
   swallow: it re-raises or converts to a typed failure. *)
let raising_idents =
  [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "reraise";
    "raise_with_backtrace" ]

let last_component lid =
  match List.rev (Longident.flatten lid) with
  | last :: _ -> last
  | [] -> ""

let expr_raises e =
  let found = ref false in
  let it =
    { Ast_iterator.default_iterator with
      Ast_iterator.expr =
        (fun self sub ->
           (match sub.pexp_desc with
            | Pexp_ident { txt; _ }
              when List.mem (last_component txt) raising_idents ->
              found := true
            | Pexp_assert _ -> found := true
            | _ -> ());
           Ast_iterator.default_iterator.Ast_iterator.expr self sub) }
  in
  it.Ast_iterator.expr it e;
  !found

(* Does the pattern catch every exception?  Guarded cases never do. *)
let rec catches_everything pat =
  match pat.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> catches_everything p
  | Ppat_or (a, b) -> catches_everything a || catches_everything b
  | _ -> false

let is_false_construct e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "false"; _ }, None) -> true
  | _ -> false

let check (src : Source.t) =
  let out = ref [] in
  let emit rule loc detail =
    let line, col = Source.line_col loc in
    out := Diag.make ~loc:src.Source.path ~line ~col rule detail :: !out
  in
  let in_lib = src.Source.zone = Source.Lib in
  let in_lib_or_bin = in_lib || src.Source.zone = Source.Bin in
  Source.iter_exprs src.Source.ast (fun e ->
      match e.pexp_desc with
      | Pexp_try (_, cases) when in_lib_or_bin ->
        List.iter
          (fun case ->
             if
               case.pc_guard = None
               && catches_everything case.pc_lhs
               && not (expr_raises case.pc_rhs)
             then
               emit catchall_swallow case.pc_lhs.ppat_loc
                 "catch-all handler swallows the exception (no re-raise, \
                  no failwith)")
          cases
      | Pexp_assert inner when in_lib && is_false_construct inner ->
        emit assert_false e.pexp_loc "assert false"
      | Pexp_ident { txt; _ } when in_lib -> begin
          match Source.ident_name txt with
          | "exit" | "Stdlib.exit" ->
            emit exit_in_lib e.pexp_loc "call to exit"
          | _ -> ()
        end
      | _ -> ());
  List.rev !out
