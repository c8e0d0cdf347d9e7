(** A metric definition: the static identity of one quantity the
    instrumented flow reports.

    Metrics are data, not code — mirroring the {!Diag.rule} design:
    each instrumented layer owns a handful of definitions, {!Registry}
    aggregates them into the catalogue that backs documentation
    ([docs/TELEMETRY.md]), dumps and the [ccgen profile] CLI, and the
    runtime {!Metrics} store refuses to record against an id the
    catalogue does not know.  A definition never changes at runtime —
    what varies is the recorded values. *)

type kind =
  | Counter               (** monotone event count, integer *)
  | Gauge                 (** last-written value *)
  | Histogram of float array
      (** distribution over fixed upper-bound buckets: bucket [i] counts
          observations [v] with [bounds.(i-1) < v <= bounds.(i)]; one
          implicit overflow bucket catches [v > bounds.(n-1)].  Bounds
          must be strictly increasing. *)

type t = {
  id : string;           (** stable machine id, e.g. ["extract/via_cuts"] *)
  kind : kind;
  stage : string;        (** flow stage that emits it: ["place"], ["route"],
                             ["verify"], ["extract"], ["analyse"], ["flow"] *)
  unit_ : string;        (** unit of the value, e.g. ["s"], ["um"], ["1"] *)
  cardinality : string;  (** label dimension, e.g. ["1"] (unlabelled),
                             ["per capacitor"], ["per rule"] *)
  doc : string;          (** one-sentence contract, used by docs and dumps *)
}

(** [make ~id ~kind ~stage ~unit_ ~cardinality ~doc] validates histogram
    bounds (non-empty, strictly increasing, finite) and raises
    [Invalid_argument] otherwise. *)
val make :
  id:string -> kind:kind -> stage:string -> unit_:string ->
  cardinality:string -> doc:string -> t

(** [kind_name k] is ["counter"], ["gauge"] or ["histogram"]. *)
val kind_name : kind -> string
