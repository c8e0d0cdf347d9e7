(** Rule identities for the typed whole-program pass.

    {!Cmts}, {!Manifest} and {!Analysis} emit diagnostics against these;
    declaring them here keeps {!Registry.all} a single static list below
    the modules that emit them. *)

(** {2 Effect/determinism taint (["int/taint-*"])} *)

val taint_wall_clock : Diag.rule
val taint_random : Diag.rule
val taint_getenv : Diag.rule
val taint_gc : Diag.rule
val taint_print : Diag.rule

(** {2 Domain-escape race detection} *)

val domain_escape : Diag.rule

(** {2 Architecture layering (["arch/*"])} *)

val layer_violation : Diag.rule
val forbidden_dep : Diag.rule
val layer_cycle : Diag.rule
val undeclared_lib : Diag.rule

(** {2 Typed-pass bookkeeping} *)

val cmt_error : Diag.rule
val manifest_error : Diag.rule

(** Every rule above, for {!Registry.all}. *)
val rules : Diag.rule list
