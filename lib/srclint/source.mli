(** A parsed source file plus the context rules scope on: which tree it
    lives in (library code vs executables vs benches vs tests) and, for
    library code, which library directory owns it.

    Parsing uses the compiler's own frontend ([compiler-libs]), so the
    analyzer sees exactly the AST the build sees — no regexes, no
    tokenizer approximations. *)

type zone =
  | Lib    (** [lib/] — reusable code; the strictest contracts apply *)
  | Bin    (** [bin/] — executables; printing and [exit] are their job *)
  | Bench  (** [bench/] — measurement harnesses; wall clocks allowed *)
  | Test   (** [test/] — suites; looser, but still deterministic *)
  | Other

type t = {
  path : string;          (** repo-relative, '/'-separated *)
  zone : zone;
  lib : string option;    (** ["lib/qor/x.ml"] -> [Some "qor"] *)
  ast : Parsetree.structure;
}

(** [zone_of_path "lib/qor/record.ml"] is [Lib]; classification looks at
    the first path component only. *)
val zone_of_path : string -> zone

(** [lib_of_path path] is the library directory name for [lib/<dir>/...]
    paths, [None] otherwise. *)
val lib_of_path : string -> string option

(** [parse ~path contents] parses [contents] as an implementation file.
    Syntax and lexer errors come back as a [meta/parse-error] finding
    instead of an exception, so one broken file cannot stop the scan. *)
val parse : path:string -> string -> (t, Diagnostic.t) result

(** The rule {!parse} emits on unparseable input. *)
val parse_error_rule : Rule.t

(** [line_col loc] is the 1-based line and 0-based column of [loc]'s
    start. *)
val line_col : Location.t -> int * int

(** [ident_name lid] is the dotted path, e.g. ["Unix.gettimeofday"]. *)
val ident_name : Longident.t -> string

(** [iter_exprs ast f] applies [f] to every expression node in [ast],
    including nested ones. *)
val iter_exprs : Parsetree.structure -> (Parsetree.expression -> unit) -> unit
