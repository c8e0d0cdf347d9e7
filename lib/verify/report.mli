(** The layout checker's report document: a text form for terminals and
    a stable machine-readable JSON form for tooling.

    Both render findings in {!Diag.compare} order (errors first), so
    output is deterministic regardless of checker execution order. *)

(** [text diags] is one line per finding followed by a summary line
    ("clean" or "2 errors, 1 warning"). *)
val text : Diag.t list -> string

(** [summary_line diags] is just the final counts line. *)
val summary_line : Diag.t list -> string

(** [category rule] is the category of [rule]'s family in
    {!Registry.all}. *)
val category : Diag.rule -> string

(** [json ?label diags] is a self-contained JSON object:

    {v
    {"version": 1,
     "label": "spiral 8-bit",
     "summary": {"errors": 1, "warnings": 0, "infos": 0, "total": 1},
     "diagnostics": [
       {"rule": "place/centroid", "category": "placement",
        "severity": "error", "loc": "C_3", "detail": "..."}]}
    v}

    [label] (optional) names the linted configuration; a finding with no
    anchor has no ["loc"]. *)
val json : ?label:string -> Diag.t list -> string

(** [json_rules ()] renders the whole {!Registry} catalogue as JSON
    (id, category, severity, doc per rule). *)
val json_rules : unit -> string
