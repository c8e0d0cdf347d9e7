(** The metric catalogue: every id the instrumented flow may record.

    Mirrors {!Verify.Registry}: definitions are aggregated here, checked
    for duplicate ids at module initialisation, and looked up by the
    runtime store before any value is accepted — an unregistered id is a
    programming error, caught loudly ({!Metrics} raises), never a silent
    new time series.  [docs/TELEMETRY.md] is generated from the same
    fields this module exposes. *)

(** All definitions, sorted by id.  Raises [Invalid_argument] at module
    initialisation when two definitions share an id. *)
val all : Metric.t list

(** [find id]. *)
val find : string -> Metric.t option

(** [ids] is [all]'s ids in order. *)
val ids : string list
