(** The verification engine: one entry point per pipeline stage, plus the
    gate the flow uses to reject bad artifacts before extraction.

    Stage checkers return plain {!Diagnostic.t} lists; [[]] means clean.
    {!gate} turns Error-severity findings (or any finding under
    [~werror:true]) into a {!Rejected} exception carrying the full list,
    so callers can render it with {!Report}. *)

(** Raised by {!assert_clean}.  [what] names the rejected artifact;
    [diagnostics] is every finding of the failing run (not only the
    errors), already sorted. *)
exception
  Rejected of {
    what : string;
    diagnostics : Diagnostic.t list;
  }

(** [check_tech tech] — the ["tech/"] rules. *)
val check_tech : Tech.Process.t -> Diagnostic.t list

(** [check_style ~bits style] — the ["style/"] rules. *)
val check_style : bits:int -> Ccplace.Style.t -> Diagnostic.t list

(** [check_placement ?centroid_tol ?dispersion_bound tech placement] — the
    ["place/"] rules (see {!Place_rules.check} for the tolerances). *)
val check_placement :
  ?centroid_tol:float ->
  ?dispersion_bound:float ->
  Tech.Process.t ->
  Ccgrid.Placement.t ->
  Diagnostic.t list

(** [check_layout layout] — the ["route/"] rules only. *)
val check_layout : Ccroute.Layout.t -> Diagnostic.t list

(** [check_artifacts layout] audits everything a routed layout carries:
    its tech description, its placement and the layout itself — the full
    pre-extraction trust check. *)
val check_artifacts : Ccroute.Layout.t -> Diagnostic.t list

(** [check_inputs ?style tech] is the ["tech/"] rules and, given
    [~style:(bits, style)], the ["style/"] rules: what {!lint} checks
    before it places.  It feeds the rule counters as {!check_tech} and
    {!check_style} do but opens no span, so a flow can run it before its
    first stage. *)
val check_inputs :
  ?style:int * Ccplace.Style.t -> Tech.Process.t -> Diagnostic.t list

(** [check_built layout] is {!check_artifacts} without the tech rules:
    the placement and routing rules, for a gate whose tech already
    passed {!check_inputs}. *)
val check_built : Ccroute.Layout.t -> Diagnostic.t list

(** [lint ?parallel ?tech ~bits style] is the staged whole-pipeline lint:
    tech and style rules first; when those are error-free the style is
    placed and the placement rules run; when those are error-free too the
    placement is routed (with [parallel], default single wires) and the
    routing rules run.  Staging means a broken early artifact cannot crash
    a later stage — the linter reports instead of raising. *)
val lint :
  ?parallel:(int -> int) ->
  ?tech:Tech.Process.t ->
  bits:int ->
  Ccplace.Style.t ->
  Diagnostic.t list

(** [lint_placement ?parallel ?tech placement] is {!lint} for a prebuilt
    (e.g. loaded) placement: tech and placement rules, then — only when
    error-free — routing and the routing rules. *)
val lint_placement :
  ?parallel:(int -> int) ->
  ?tech:Tech.Process.t ->
  Ccgrid.Placement.t ->
  Diagnostic.t list

(** [has_errors diags]. *)
val has_errors : Diagnostic.t list -> bool

(** [worst diags] is the most severe finding's severity, if any. *)
val worst : Diagnostic.t list -> Rule.severity option

(** [gate ?werror diags] is [Ok ()] when nothing disqualifying was found,
    [Error diags] (sorted) otherwise.  [werror] (default [false]) promotes
    warnings to disqualifying. *)
val gate : ?werror:bool -> Diagnostic.t list -> (unit, Diagnostic.t list) result

(** [assert_clean ?werror ?what diags] raises {!Rejected} when {!gate}
    fails; [what] names the artifact in the exception's printed form. *)
val assert_clean : ?werror:bool -> ?what:string -> Diagnostic.t list -> unit
