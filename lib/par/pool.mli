(** A one-shot parallel map over OCaml 5 domains with deterministic
    result ordering and per-task fault isolation (stdlib only; no
    domainslib).

    The contract every parallel entry point in the tree builds on
    (docs/PARALLEL.md):

    - {b Ordering}: results come back in submission order, whatever the
      completion order — result [i] lands in slot [i].
    - {b Fault isolation}: a raising task yields
      [Error {index; exn; backtrace}] in its own slot; every other task
      still runs.
    - {b Serial path}: [jobs = 1] or at most one item runs in the calling
      domain.  When [Domain.spawn] fails the call runs on the domains it
      got, down to the caller alone, with the same observable results.
    - {b Telemetry inheritance}: tasks run under the caller's
      {!Telemetry.Context}; they record metrics and deliver spans into
      the scopes and collectors active at the call.

    [jobs] counts total concurrency: the caller and [jobs - 1] domains
    spawned for the call take chunks of the list from one atomic
    counter.  Every spawned domain is joined before the call returns. *)

(** What a raising task leaves in its result slot. *)
type task_error = {
  index : int;           (** position of the task in the submitted list *)
  exn : exn;             (** the exception the task raised *)
  backtrace : string;    (** its backtrace — the parallel path turns
                             recording on in the caller and in every
                             spawned domain, so a failed task there always
                             captures one *)
}

(** Raised by {!map_list_exn} for the first failed slot. *)
exception Task_failed of task_error

(** [map_list ?jobs f xs] runs [f] over [xs] with [jobs] resolved by
    {!Jobs.resolve}; result [i] is in slot [i].  A spawn shortfall is
    counted in the [sched/pool-degraded] metric when a
    {!Telemetry.Metrics} scope is collecting, and a parallel call is
    recorded as a {!Sched} batch when scheduler recording is on. *)
val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, task_error) result list

(** [map_list_exn ?jobs f xs] is {!map_list} with the first failure
    re-raised as {!Task_failed} (after every task has run). *)
val map_list_exn : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
