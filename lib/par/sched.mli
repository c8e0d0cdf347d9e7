(** Scheduler telemetry for {!Pool}: per-chunk claim→completion
    timestamps and batch-level stall/imbalance summaries
    (docs/PARALLEL.md).

    Off by default.  A parallel {!Pool.map_list} call reads {!enabled}
    exactly once (one atomic read — the {!Telemetry.Memory} discipline),
    and the instrumentation is a pure observer: results are bitwise
    identical with it on or off at any worker count.

    When on, every parallel call is delivered as a batch to all open
    {!collect} scopes.  Each chunk also runs inside a ["sched.chunk"]
    span, so a Chrome trace shows per-worker chunk slices
    ({!Telemetry.Sink}). *)

(** One executed work chunk. *)
type chunk = {
  c_batch : int;         (** id of the batch this chunk belongs to *)
  c_index : int;         (** position within the batch, 0-based *)
  c_items : int;         (** tasks the chunk covers *)
  c_started_ns : int64;  (** an executor claimed the chunk *)
  c_finished_ns : int64; (** last task of the chunk completed *)
  c_by_caller : bool;    (** executed by the calling domain itself *)
}

(** One instrumented parallel {!Pool.map_list} call. *)
type batch = {
  b_id : int;
  b_jobs : int;             (** requested concurrency *)
  b_workers : int;          (** domains spawned for the call *)
  b_items : int;
  b_chunks : chunk list;    (** in chunk order *)
  b_wall_s : float;         (** call start, spawns included, to the last
                                join *)
  b_caller_blocked_s : float;
      (** caller joining the spawned domains, no chunk left to claim *)
}

val enabled : unit -> bool

(** [with_enabled b f] runs [f] with recording set to [b], restored
    afterwards. *)
val with_enabled : bool -> (unit -> 'a) -> 'a

(** [collect f] returns [f ()] plus every batch recorded during it, in
    completion order.  Scopes may nest; batches recorded from worker
    domains (nested maps) are delivered too. *)
val collect : (unit -> 'a) -> 'a * batch list

(** {2 Derived figures} *)

val chunk_exec_s : chunk -> float

(** Total chunk execution time of the batch, over all executors. *)
val busy_s : batch -> float

(** Slowest-chunk tail: max over mean chunk execution time ([1.0] =
    perfectly balanced; [1.0] for empty or zero-time batches). *)
val imbalance : batch -> float

(** {2 Aggregation} *)

type summary = {
  batches : int;
  chunks : int;
  caller_chunks : int;       (** run by the calling domain *)
  items : int;
  wall_s : float;            (** sum of batch walls *)
  busy_s : float;            (** sum of chunk execution times *)
  capacity_s : float;        (** sum of jobs x wall over the batches *)
  caller_blocked_s : float;
  mean_utilization : float;  (** [busy_s] over [capacity_s]; [nan] when
                                 no batches ran *)
  worst_imbalance : float;   (** [nan] when no batches ran *)
}

val summarize : batch list -> summary
val summary_to_json : summary -> Telemetry.Json.t

(** Three lines: counts; wall, busy of capacity and utilization, with
    the imbalance; caller blocked. *)
val pp_summary : Format.formatter -> summary -> unit

(** {2 Pool-facing} — called by {!Pool.map_list}; not for general use. *)

val next_batch_id : unit -> int

(** Deliver a completed batch to every open {!collect} scope. *)
val record_batch : batch -> unit
