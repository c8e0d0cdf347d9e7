(** The source linter's report document for one {!Engine.result}: a text
    form for terminals and a stable machine-readable JSON form for CI
    artifacts.  Both render findings in {!Engine.result} order, which is
    {!Diag.compare} order (errors first), so output is deterministic
    regardless of scan order. *)

(** [text result] is one line per finding followed by a summary line
    ("source tree clean" or counts, plus files scanned and suppression
    count). *)
val text : Engine.result -> string

(** [summary_line result] is just the final counts line. *)
val summary_line : Engine.result -> string

(** [category rule] is the category of [rule]'s family in
    {!Registry.all}. *)
val category : Diag.rule -> string

(** [json result] is a self-contained JSON object:

    {v
    {"version": 1, "tool": "cclint",
     "summary": {"errors": 0, "warnings": 0, "infos": 0, "total": 0,
                 "suppressed": 2, "files_scanned": 123},
     "diagnostics": [
       {"rule": "det/wall-clock", "category": "determinism",
        "severity": "error", "file": "lib/x.ml", "line": 7, "col": 2,
        "detail": "..."}],
     "suppressions": [
       {"rule": "det/wall-clock", "path": "lib/qor/provenance.ml",
        "line": 3, "matched": 1, "justification": "..."}]}
    v}

    A finding's ["file"] is its {!Diag.t} [loc]. *)
val json : Engine.result -> string

(** [json_rules ()] renders the whole {!Registry} catalogue as JSON
    (id, category, severity, doc per rule). *)
val json_rules : unit -> string

(** [text_rules ()] renders the catalogue as text, one rule per line:
    ["error[det/wall-clock] (determinism): ..."]. *)
val text_rules : unit -> string
