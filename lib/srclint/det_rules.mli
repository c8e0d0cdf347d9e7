(** Determinism contracts (["det/"] rules): the whole flow is reproducible
    byte-for-byte at any [--jobs] value (docs/PARALLEL.md), which holds
    only while library code never reads a wall clock, ambient RNG state or
    the process environment, and never mutates the process-wide GC (which
    would also skew {!Telemetry.Memory} accounting — only [lib/telemetry]
    is exempt).  The one sanctioned wall-clock site
    ([Qor.Provenance.capture], which stamps records by design) carries a
    justified [.cclint] suppression. *)

val rules : Diag.rule list
val check : Source.t -> Diag.t list
