(** A fixed-size [Domain] worker pool with deterministic result ordering
    and per-task fault isolation (stdlib only; no domainslib).

    The contract every parallel entry point in the tree builds on
    (docs/PARALLEL.md):

    - {b Ordering}: [map] returns results in submission order, whatever
      the completion order — results land in per-index slots.
    - {b Fault isolation}: a raising task yields
      [Error {index; exn; backtrace}] in its own slot; every other task
      still completes and the pool remains usable.
    - {b Serial fallback}: [jobs = 1], a single-item batch, or total
      [Domain.spawn] failure all run in the calling domain with the same
      observable results (partial spawn failure degrades to fewer
      workers).
    - {b Telemetry inheritance}: each batch captures the submitter's
      {!Telemetry.Context}; tasks record metrics and deliver spans into
      the scopes and collectors active at submission.

    [jobs] counts total concurrency: [jobs - 1] worker domains plus the
    submitting domain, which drains the queue while it waits — which is
    also why nested [map] calls on one pool cannot deadlock. *)

type t

(** What a raising task leaves in its result slot. *)
type task_error = {
  index : int;           (** position of the task in the submitted list *)
  exn : exn;             (** the exception the task raised *)
  backtrace : string;    (** its backtrace — pool creation enables
                             recording on the caller and every worker
                             domain, so pool-run tasks always capture
                             one *)
}

(** Raised by [map_exn] / [map_list_exn] for the first failed slot. *)
exception Task_failed of task_error

(** [map t f xs] runs [f] over [xs] on the pool; result [i] is in slot
    [i].  Reentrant: tasks may themselves call [map] on [t]. *)
val map : t -> ('a -> 'b) -> 'a list -> ('b, task_error) result list

(** [map_exn t f xs] is [map] with the first failure re-raised as
    {!Task_failed} (after the whole batch completed). *)
val map_exn : t -> ('a -> 'b) -> 'a list -> 'b list

(** [with_ ~jobs f] spawns [jobs - 1] workers, runs [f] on the pool, and
    then stops and joins the workers once the queue drains, whether [f]
    returns or raises; the pool must not be used after [f].  Raises
    [Invalid_argument] when [jobs < 1].  Also turns exception-backtrace
    recording on (caller and workers), and records any spawn shortfall
    in the [sched/pool-degraded] metric when a {!Telemetry.Metrics}
    scope is collecting. *)
val with_ : jobs:int -> (t -> 'a) -> 'a

(** [map_list ?jobs f xs] is the one-shot form: resolve [jobs] via
    {!Jobs.resolve}, run serial when it is 1, otherwise create a pool,
    map, and shut it down. *)
val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, task_error) result list

(** [map_list_exn ?jobs f xs] is {!map_list} with failures re-raised. *)
val map_list_exn : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
