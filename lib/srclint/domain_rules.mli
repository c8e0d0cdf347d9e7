(** Domain-safety contracts (["domain/"] rules): [Par.Pool] runs library
    code on worker domains concurrently, so top-level mutable state in
    [lib/] is a data race waiting for a schedule.  [Atomic] values are the
    sanctioned primitive and are not flagged; everything else (refs,
    hashtables, queues, buffers, arrays bound at module init) needs a
    justified [.cclint] suppression explaining its guard.  Domain-local
    storage is reserved for the two libraries that own the worker
    machinery, [lib/telemetry] and [lib/par]. *)

val rules : Diag.rule list
val check : Source.t -> Diag.t list
