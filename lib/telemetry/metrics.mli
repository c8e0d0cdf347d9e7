(** The runtime metrics store: counters, gauges and histograms recorded
    against {!Registry} ids.

    Collection is scoped: {!collect} pushes a fresh store, runs the
    closure, and returns everything recorded inside as an immutable
    {!dump}.  Scopes nest — every active scope receives every write, so
    an outer scope (e.g. [ccgen profile] around a matrix of runs)
    aggregates counters across the per-run scopes that [Flow.run] opens.
    With no scope active, the recording entry points are no-ops costing
    one list probe — the null default.

    Recording against an id absent from {!Registry.all}, or with the
    wrong kind, raises [Invalid_argument]: the catalogue is the contract.

    [label] selects the series within a metric whose cardinality is not
    1 (e.g. [~label:"C3"] for per-capacitor metrics); unlabelled and
    labelled series of the same id are distinct.

    {b Domain safety.}  The set of active scopes is {e domain-local}: a
    freshly spawned domain records into nothing until a submitter's
    scopes are propagated into it with {!Context} (which {!Par.Pool}
    does automatically for every task).  Once shared, the stores
    themselves are mutex-guarded, so concurrent increments from several
    domains into one captured scope are exact. *)

(** [enabled ()] is true when at least one scope is collecting in the
    calling domain. *)
val enabled : unit -> bool

(** [incr ?n ?label id] adds [n] (default 1) to a counter. *)
val incr : ?n:int -> ?label:string -> string -> unit

(** [set ?label id v] writes a gauge. *)
val set : ?label:string -> string -> float -> unit

(** [observe ?label id v] records [v] into a histogram's buckets. *)
val observe : ?label:string -> string -> float -> unit

(** {2 Dumps} *)

type value =
  | Count of int
  | Value of float
  | Dist of {
      bounds : float array;   (** upper bucket bounds, as declared *)
      counts : int array;     (** length [Array.length bounds + 1]; the
                                  last entry is the overflow bucket *)
      sum : float;
      total : int;
    }

type point = {
  metric : Metric.t;
  label : string option;
  value : value;
}

(** Immutable snapshot of one scope, sorted by (id, label). *)
type dump = point list

val empty : dump

(** [collect f] runs [f] with a fresh scope active and returns its result
    together with everything recorded. *)
val collect : (unit -> 'a) -> 'a * dump

(** {2 Cross-domain propagation} — used by {!Context}; prefer that. *)

(** The calling domain's active scopes, as an opaque capture. *)
type scope_ctx

val capture_scopes : unit -> scope_ctx

(** [with_scopes ctx f] runs [f] with the captured scopes installed as
    the calling domain's active set (restored afterwards). *)
val with_scopes : scope_ctx -> (unit -> 'a) -> 'a

val points : dump -> point list

(** [find ?label dump id]. *)
val find : ?label:string -> dump -> string -> value option

(** [counter ?label dump id] is the count, 0 when never incremented. *)
val counter : ?label:string -> dump -> string -> int

(** [gauge ?label dump id]. *)
val gauge : ?label:string -> dump -> string -> float option

(** [quantile value q] estimates the [q]-quantile ([0 <= q <= 1]) of a
    histogram from its bucket boundaries: locate the bucket holding the
    rank-[q] observation and interpolate linearly inside it, taking the
    first bucket's lower edge as 0 and clamping the overflow bucket to
    the last declared bound.  [None] for counters, gauges, and empty
    histograms; raises [Invalid_argument] when [q] is outside [0, 1].
    Rendered as [p50]/[p95]/[p99] in {!to_text} and {!to_json}. *)
val quantile : value -> float -> float option

(** [to_text dump] is the aligned human-readable dump. *)
val to_text : dump -> string

(** [to_json dump] is the machine-readable dump (see docs/TELEMETRY.md). *)
val to_json : dump -> Json.t
