open Parsetree

let poly_compare =
  Diag.rule ~id:"hyg/poly-compare" ~severity:Diag.Error
    ~doc:
      "Polymorphic compare is NaN-hostile on floats and \
       representation-fragile on records; kernels must sort and compare \
       with typed comparators (Float.compare, Int.compare, Cell.compare, \
       ...)."

let float_equality =
  Diag.rule ~id:"hyg/float-equality" ~severity:Diag.Error
    ~doc:
      "Structural (=)/(<>) against a float literal; use Float.equal, a \
       sign test, or an explicit tolerance."

let print_in_lib =
  Diag.rule ~id:"hyg/print-in-lib" ~severity:Diag.Error
    ~doc:
      "Library code must not write to stdout/stderr; return strings, \
       take a Format.formatter, or use Logs — printing is the CLI's job."

let obj_magic =
  Diag.rule ~id:"hyg/obj-magic" ~severity:Diag.Error
    ~doc:"Obj.magic/Obj.repr defeat the type system; there is no sanctioned \
          use in this tree."

let rules = [ poly_compare; float_equality; print_in_lib; obj_magic ]

let print_idents =
  [ "print_endline"; "print_string"; "print_newline"; "print_int";
    "print_float"; "print_char"; "prerr_endline"; "prerr_string";
    "prerr_newline"; "Printf.printf"; "Printf.eprintf"; "Format.printf";
    "Format.eprintf"; "Format.print_string" ]

let obj_idents = [ "Obj.magic"; "Obj.repr"; "Obj.obj" ]

let eq_operators = [ "="; "<>"; "=="; "!=" ]

(* A file that binds its own [compare] (Diag.compare, a local
   comparator passed to sort, ...) uses that binding, not the polymorphic
   one — skip bare-[compare] findings there. *)
let binds_compare ast =
  let found = ref false in
  let value_binding self vb =
    (let rec pat_binds p =
       match p.ppat_desc with
       | Ppat_var { txt = "compare"; _ } -> true
       | Ppat_constraint (p, _) | Ppat_alias (p, _) -> pat_binds p
       | _ -> false
     in
     if pat_binds vb.pvb_pat then found := true);
    Ast_iterator.default_iterator.Ast_iterator.value_binding self vb
  in
  let it =
    { Ast_iterator.default_iterator with Ast_iterator.value_binding = value_binding }
  in
  it.Ast_iterator.structure it ast;
  !found

let rec is_float_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint (inner, _) -> is_float_literal inner
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident ("~-." | "~+."); _ };
          _ },
        [ (_, arg) ] ) ->
    is_float_literal arg
  | _ -> false

let check (src : Source.t) =
  let out = ref [] in
  let emit rule loc detail =
    let line, col = Source.line_col loc in
    out := Diag.make ~loc:src.Source.path ~line ~col rule detail :: !out
  in
  let in_lib = src.Source.zone = Source.Lib in
  let compare_shadowed = binds_compare src.Source.ast in
  Source.iter_exprs src.Source.ast (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> begin
          let name = Source.ident_name txt in
          if List.mem name obj_idents then
            emit obj_magic e.pexp_loc ("use of " ^ name)
          else if in_lib then
            if name = "Stdlib.compare" || name = "Pervasives.compare" then
              emit poly_compare e.pexp_loc ("use of " ^ name)
            else if name = "compare" && not compare_shadowed then
              emit poly_compare e.pexp_loc "use of polymorphic compare"
            else if List.mem name print_idents then
              emit print_in_lib e.pexp_loc ("use of " ^ name)
        end
      | Pexp_apply
          ( { pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ },
            [ (_, lhs); (_, rhs) ] )
        when in_lib && List.mem op eq_operators ->
        if is_float_literal lhs || is_float_literal rhs then
          emit float_equality e.pexp_loc
            (Printf.sprintf "(%s) against a float literal" op)
      | _ -> ());
  List.rev !out
