(** Per-run telemetry summary: the span tree and metric dump of one
    recorded region, plus the per-stage timing table derived from the
    root span's direct children.

    [Flow.run] records itself through {!record} and stores the result in
    [Flow.result.telemetry]; the legacy [elapsed_place_route_s] float is
    derived from it ({!place_route_seconds}) rather than measured by a
    separate wall clock. *)

type t = {
  name : string;                      (** root span name, e.g. ["flow"] *)
  attrs : (string * Span.value) list;
  spans : Span.complete list;         (** pre-order (start order) *)
  metrics : Metrics.dump;
  stages : (string * float) list;     (** root's direct children: name ->
                                          seconds, in execution order *)
  mem_stages : (string * Memory.delta) list;
                                      (** same stages' GC deltas — empty
                                          unless {!Memory.enabled} was on *)
  total_s : float;                    (** root span duration *)
  mem_total : Memory.delta option;    (** root span's GC delta *)
}

(** A summary with nothing in it (placeholder before {!record} runs). *)
val empty : t

(** [record ?attrs ~name f] runs [f] under a root span [name] with a
    fresh metric scope and span collector, and derives the stage table.
    Sinks installed outside still receive every span. *)
val record :
  ?attrs:(string * Span.value) list -> name:string -> (unit -> 'a) -> 'a * t

(** [stage_seconds t name] is the duration of the named top-level stage,
    if it ran. *)
val stage_seconds : t -> string -> float option

(** [stage_names t] in execution order. *)
val stage_names : t -> string list

(** {2 Memory} — populated only when {!Memory.enabled} was on. *)

(** [stage_memory t name] is the named top-level stage's GC delta. *)
val stage_memory : t -> string -> Memory.delta option

(** [memory_stages t] — the per-stage allocation table, execution order. *)
val memory_stages : t -> (string * Memory.delta) list

(** [total_memory t] — the root span's GC delta. *)
val total_memory : t -> Memory.delta option

(** [stage_alloc_mb t name] — the named stage's allocation in MB. *)
val stage_alloc_mb : t -> string -> float option

(** [place_route_seconds t] is the sum of the ["place"] and ["route"]
    stage durations — the Table III measurement.  The verification gate
    and the analysis stages are deliberately excluded. *)
val place_route_seconds : t -> float
