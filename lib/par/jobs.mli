(** The jobs knob: how many domains a parallel construct may use.

    Resolution order, strongest first:
    + an explicit [~jobs] argument at the call site;
    + the process-wide default set by {!set_default} (the CLI's
      [--jobs N]);
    + the [CCDAC_JOBS] environment variable;
    + [1] — serial, the deterministic baseline.

    For {!set_default} and [CCDAC_JOBS], [0] means "auto":
    {!Domain.recommended_domain_count}.  An explicit [~jobs:0] (or any
    [~jobs] below 1) resolves to [1].  Every parallel entry point in the
    tree is bitwise-deterministic in its results whatever this resolves
    to (docs/PARALLEL.md), so the knob only trades wall time. *)

(** ["CCDAC_JOBS"]. *)
val env_var : string

(** [auto ()] is [Domain.recommended_domain_count ()], at least 1. *)
val auto : unit -> int

(** [of_string s] parses a jobs value the way [CCDAC_JOBS] is parsed:
    whitespace is trimmed, ["0"] means auto, positive integers are taken
    as-is, and anything else (empty, negative, non-numeric) is [None] —
    an unparseable environment value falls through to serial rather than
    erroring. *)
val of_string : string -> int option

(** [set_default n] installs the process-wide default ([n <= 0] = auto). *)
val set_default : int -> unit

(** [clear_default ()] reverts to environment/serial resolution. *)
val clear_default : unit -> unit

(** [default ()] is the resolved process-wide default. *)
val default : unit -> int

(** [resolve jobs] is [max 1 n] for [Some n], else [default ()]. *)
val resolve : int option -> int
