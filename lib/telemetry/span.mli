(** Span-based tracing: nested, monotonic-clock-timed regions.

    [Span.with_ ~name f] times [f] and, on completion, delivers one
    {!complete} record to every installed sink and every active
    collector.  When nothing listens (the null default) the call is a
    single list probe around [f] — no clock read, no allocation — so
    instrumented libraries pay nothing in ordinary use.

    Nesting is tracked with an explicit stack: a span started while
    another is open records that parent's name and a one-deeper depth.
    [seq] is a process-global start-order sequence number, so sorting
    completed spans by [seq] (what {!collect} returns) reconstructs the
    pre-order walk of the span tree.

    {b Domain safety.}  The nesting stack and the collector list are
    domain-local; sinks are process-global and receive spans from every
    domain (delivery is mutex-serialized).  Each completed span carries
    the integer id of the domain that ran it ([domain]), which the
    Chrome-trace sink renders as the thread id.  {!Context} propagates a
    submitter's stack and collectors into pool workers, so spans opened
    inside a parallel task keep their logical parent and still reach
    collectors opened in the submitting domain. *)

type value =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type complete = {
  name : string;
  attrs : (string * value) list;
  start_ns : int64;      (** monotonic ({!Clock.now_ns}) at entry *)
  duration_ns : int64;   (** always >= 0 *)
  depth : int;           (** 0 = no enclosing span at entry *)
  parent : string option;
  seq : int;             (** global start order *)
  domain : int;          (** id of the domain that ran the span *)
  mem : Memory.delta option;
                         (** GC delta, when {!Memory.enabled} was on *)
}

(** [with_ ?attrs ~name f] runs [f] inside a span.  The span completes —
    and is delivered — even when [f] raises. *)
val with_ : ?attrs:(string * value) list -> name:string -> (unit -> 'a) -> 'a

(** [active ()] is true when at least one sink or collector listens (and
    spans are therefore being recorded). *)
val active : unit -> bool

(** {2 Sinks} — streaming consumers of completed spans. *)

(** [with_sink k f] installs [k] for the duration of [f]. *)
val with_sink : (complete -> unit) -> (unit -> 'a) -> 'a

(** {2 Collection} — in-memory capture, the basis of {!Summary}. *)

(** [collect f] captures every span completed during [f] in the calling
    domain — plus, through {!Context}, in any worker the context was
    propagated to — returned in start ([seq]) order. *)
val collect : (unit -> 'a) -> 'a * complete list

(** {2 Cross-domain propagation} — used by {!Context}; prefer that. *)

(** The calling domain's span stack and collectors, as an opaque capture. *)
type ctx

val capture_context : unit -> ctx

(** [with_context ctx f] runs [f] with the captured stack and collectors
    installed in the calling domain (restored afterwards). *)
val with_context : ctx -> (unit -> 'a) -> 'a

(** [pp_value] renders an attribute value. *)
val pp_value : Format.formatter -> value -> unit

(** [json_value] renders an attribute value as JSON. *)
val json_value : value -> Json.t
