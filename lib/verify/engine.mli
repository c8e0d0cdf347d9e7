(** The verification engine: one entry point per pipeline stage, plus the
    gate the flow uses to reject bad artifacts before extraction.

    Stage checkers return plain {!Diag.t} lists; [[]] means clean.
    {!assert_clean} turns a list that fails the {!Diag.fails} gate into a
    {!Rejected} exception carrying the full list, so callers can render it
    with {!Report}. *)

(** Raised by {!assert_clean}.  [what] names the rejected artifact;
    [diagnostics] is every finding of the failing run (not only the
    errors), already sorted. *)
exception
  Rejected of {
    what : string;
    diagnostics : Diag.t list;
  }

(** [check_tech tech] — the ["tech/"] rules. *)
val check_tech : Tech.Process.t -> Diag.t list

(** [check_style ~bits style] — the ["style/"] rules. *)
val check_style : bits:int -> Ccplace.Style.t -> Diag.t list

(** [check_placement ?centroid_tol ?dispersion_bound tech placement] — the
    ["place/"] rules (see {!Place_rules.check} for the tolerances). *)
val check_placement :
  ?centroid_tol:float ->
  ?dispersion_bound:float ->
  Tech.Process.t ->
  Ccgrid.Placement.t ->
  Diag.t list

(** [check_layout layout] — the ["route/"] rules only. *)
val check_layout : Ccroute.Layout.t -> Diag.t list

(** [check_artifacts layout] audits everything a routed layout carries:
    its tech description, its placement and the layout itself — the full
    pre-extraction trust check. *)
val check_artifacts : Ccroute.Layout.t -> Diag.t list

(** [check_inputs ?style tech] is the ["tech/"] rules and, given
    [~style:(bits, style)], the ["style/"] rules: what {!lint} checks
    before it places.  It feeds the rule counters as {!check_tech} and
    {!check_style} do but opens no span, so a flow can run it before its
    first stage. *)
val check_inputs :
  ?style:int * Ccplace.Style.t -> Tech.Process.t -> Diag.t list

(** [check_built layout] is {!check_artifacts} without the tech rules:
    the placement and routing rules, for a gate whose tech already
    passed {!check_inputs}. *)
val check_built : Ccroute.Layout.t -> Diag.t list

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
  Diag.t list

(** [lint_placement ?parallel ?tech placement] is {!lint} for a prebuilt
    (e.g. loaded) placement: tech and placement rules, then — only when
    error-free — routing and the routing rules. *)
val lint_placement :
  ?parallel:(int -> int) ->
  ?tech:Tech.Process.t ->
  Ccgrid.Placement.t ->
  Diag.t list

(** [assert_clean ?werror ?what diags] raises {!Rejected} when
    [Diag.fails ?werror diags]; [what] names the artifact in the
    exception's printed form. *)
val assert_clean : ?werror:bool -> ?what:string -> Diag.t list -> unit
