(** Rule identities for the typed whole-program pass.

    {!Cmts}, {!Manifest} and {!Analysis} emit diagnostics against these;
    declaring them here keeps {!Registry.all} a single static list below
    the modules that emit them. *)

(** {2 Effect/determinism taint (["int/taint-*"])} *)

val taint_wall_clock : Rule.t
val taint_random : Rule.t
val taint_getenv : Rule.t
val taint_gc : Rule.t
val taint_print : Rule.t

(** {2 Domain-escape race detection} *)

val domain_escape : Rule.t

(** {2 Architecture layering (["arch/*"])} *)

val layer_violation : Rule.t
val forbidden_dep : Rule.t
val layer_cycle : Rule.t
val undeclared_lib : Rule.t

(** {2 Typed-pass bookkeeping} *)

val cmt_error : Rule.t
val manifest_error : Rule.t

(** Every rule above, for {!Registry.all}. *)
val rules : Rule.t list
