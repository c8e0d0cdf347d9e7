type zone = Lib | Bin | Bench | Test | Other

type t = {
  path : string;
  zone : zone;
  lib : string option;
  ast : Parsetree.structure;
}

let split_path path = String.split_on_char '/' path

let zone_of_path path =
  match split_path path with
  | "lib" :: _ -> Lib
  | "bin" :: _ -> Bin
  | "bench" :: _ -> Bench
  | "test" :: _ -> Test
  | _ -> Other

let lib_of_path path =
  match split_path path with
  | [ "lib"; dir; _ ] -> Some dir
  | "lib" :: dir :: _ :: _ -> Some dir
  | _ -> None

let parse_error_rule =
  Rule.make ~id:"meta/parse-error" ~category:Rule.Meta ~severity:Rule.Error
    ~doc:
      "The file does not parse with the compiler frontend; the analyzer \
       cannot vouch for anything in it."

let line_col (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let ident_name lid = String.concat "." (Longident.flatten lid)

let parse ~path contents =
  let lexbuf = Lexing.from_string contents in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | ast -> Ok { path; zone = zone_of_path path; lib = lib_of_path path; ast }
  | exception Syntaxerr.Error err ->
    let line, col = line_col (Syntaxerr.location_of_error err) in
    Error
      (Diagnostic.make ~rule:parse_error_rule ~file:path ~line ~col
         "syntax error")
  | exception Lexer.Error (_, loc) ->
    let line, col = line_col loc in
    Error
      (Diagnostic.make ~rule:parse_error_rule ~file:path ~line ~col
         "lexer error")

let iter_exprs ast f =
  let expr self e =
    f e;
    Ast_iterator.default_iterator.Ast_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with Ast_iterator.expr = expr } in
  it.Ast_iterator.structure it ast
