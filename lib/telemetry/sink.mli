(** Span sinks: where completed spans go.

    One is provided: {!chrome_trace} (the Chrome [trace_event] JSON
    format, loadable in [chrome://tracing] and
    {{:https://ui.perfetto.dev}Perfetto}).  With no sink installed,
    the fast path in {!Span.with_} records nothing. *)

type t = {
  on_span : Span.complete -> unit;
  close : unit -> unit;  (** flush and release resources; idempotent *)
}

(** [chrome_trace ~path] buffers spans and, on [close], writes a Chrome
    [trace_event] JSON object ([{"traceEvents": [...]}], complete
    ["ph": "X"] events, microsecond timestamps) to [path]. *)
val chrome_trace : path:string -> t

(** [events_json spans] is the Chrome [trace_event] document for an
    already-collected span list (what {!chrome_trace} writes).  The
    event list opens with ["ph": "M"] metadata events naming the process
    ([ccdac]) and the thread after the root span — its name plus its
    attrs (e.g. ["flow.run style=spiral bits=8"]) — so Perfetto titles
    the tracks usefully.  Spans carrying a {!Memory.delta} additionally
    emit ["ph": "C"] [heap_mb] counter events at entry and exit (the
    major-heap sawtooth) and [alloc_mb]/[major_collections] args on
    their duration events. *)
val events_json : Span.complete list -> Json.t

(** [with_ sink f] installs [sink] for the duration of [f] and closes it
    afterwards (also on exceptions). *)
val with_ : t -> (unit -> 'a) -> 'a
