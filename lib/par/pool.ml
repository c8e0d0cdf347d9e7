(* A fixed-size Domain worker pool with a chunked work queue.

   Concurrency discipline (stdlib only — Domain, Mutex, Condition):

   - [jobs] is the total concurrency: [jobs - 1] spawned worker domains
     plus the submitting domain, which participates by draining the
     queue while it waits.  Caller participation is what makes nested
     [map] calls on one pool deadlock-free: a worker that submits a
     sub-batch runs sub-tasks itself instead of blocking.
   - Results land in per-index slots, so ordering is by construction the
     submission order whatever the completion order.
   - Every task runs inside its own exception barrier; a raising task
     yields [Error {index; exn; backtrace}] in its slot and the worker
     loop survives.  The pool never dies from a task.
   - Tasks run under the submitter's telemetry context
     ({!Telemetry.Context}), so metric scopes and span collectors opened
     in the submitting domain observe parallel work, and spans keep
     their logical parent while carrying the worker's domain id.
   - [Domain.spawn] failure (domain limit reached) degrades the pool:
     whatever spawned serves, down to fully serial in the caller. *)

type task_error = {
  index : int;
  exn : exn;
  backtrace : string;
}

exception Task_failed of task_error

let () =
  Printexc.register_printer (function
    | Task_failed { index; exn; backtrace } ->
      Some
        (Printf.sprintf "Par.Pool.Task_failed(task %d: %s)%s" index
           (Printexc.to_string exn)
           (if backtrace = "" then ""
            else "\nTask backtrace:\n" ^ backtrace))
    | _ -> None)

type t = {
  size : int;                              (* requested concurrency *)
  mutex : Mutex.t;
  work : (unit -> unit) Queue.t;           (* guarded by [mutex] *)
  wake : Condition.t;                      (* work arrived or stopping *)
  mutable stop : bool;                     (* guarded by [mutex] *)
  mutable workers : unit Domain.t list;
}

let worker_count t = List.length t.workers

(* Worker loop: drain the queue; on empty, exit if stopping else wait.
   Tasks are exception-barriered closures, so [task ()] never raises. *)
let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    match Queue.take_opt t.work with
    | Some task -> Some task
    | None ->
      if t.stop then None
      else begin
        Condition.wait t.wake t.mutex;
        next ()
      end
  in
  let task = next () in
  Mutex.unlock t.mutex;
  match task with
  | None -> ()
  | Some task ->
    task ();
    worker_loop t

let create ~jobs =
  if jobs < 1 then invalid_arg "Par.Pool.create: jobs must be >= 1";
  (* Task backtraces are only captured while the runtime records them;
     enable recording in the creating domain here and in each worker
     below (the flag is per-domain in OCaml 5), so [task_error.backtrace]
     is populated on whichever domain the task failed. *)
  Printexc.record_backtrace true;
  let t =
    { size = jobs;
      mutex = Mutex.create ();
      work = Queue.create ();
      wake = Condition.create ();
      stop = false;
      workers = [] }
  in
  (* Degrade gracefully: keep whatever spawned before the limit hit.
     [Domain.spawn] signals domain exhaustion as [Failure]; that one case
     is deliberately absorbed (the pool serves with fewer workers, down to
     fully serial in the caller).  Anything else is a real fault and
     propagates. *)
  (try
     for _ = 2 to jobs do
       t.workers <-
         Domain.spawn (fun () ->
             Printexc.record_backtrace true;
             worker_loop t)
         :: t.workers
     done
   with Failure _ -> ());
  (* Degraded spawn is otherwise silent: surface the missing concurrency
     through the registry (when a metric scope is collecting). *)
  let missing = jobs - 1 - worker_count t in
  if missing > 0 then
    Telemetry.Metrics.incr ~n:missing "sched/pool-degraded";
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_ ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* One task under its exception barrier.  The raw backtrace is grabbed
   first thing in the handler, before anything here can disturb it. *)
let run_one f index x =
  match f x with
  | y -> Ok y
  | exception exn ->
    let backtrace =
      Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
    in
    Error { index; exn; backtrace }

let serial_map f xs = List.mapi (fun i x -> run_one f i x) xs

let map t f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else if t.size <= 1 || t.workers = [] || n = 1 then serial_map f xs
  else begin
    let out = Array.make n None in
    let ctx = Telemetry.Context.capture () in
    (* Chunked queue: a few chunks per worker balances load without
       per-item queue traffic. *)
    let chunk_size = max 1 ((n + (t.size * 4) - 1) / (t.size * 4)) in
    let nchunks = (n + chunk_size - 1) / chunk_size in
    (* Scheduler telemetry (Sched): checked once per batch — one atomic
       read when off.  When on, each chunk is timestamped, samples the
       backlog it left behind, and runs inside a "sched.chunk" span; the
       records land in per-chunk slots (the same publication pattern as
       [out]: slot write, then the release/acquire on [t.mutex] in the
       completion update orders it before the caller's read). *)
    let sched_on = Sched.enabled () in
    let batch_id = if sched_on then Sched.next_batch_id () else 0 in
    let chunk_recs = if sched_on then Array.make nchunks None else [||] in
    let enqueued_ns = if sched_on then Telemetry.Clock.now_ns () else 0L in
    let submitter = (Domain.self () :> int) in
    (* Batch completion state shares the pool mutex. *)
    let remaining = ref n in
    let all_done = Condition.create () in
    let run_chunk lo hi () =
      for i = lo to hi - 1 do
        out.(i) <- Some (run_one f i items.(i))
      done
    in
    let chunk ci lo hi () =
      if sched_on then begin
        Mutex.lock t.mutex;
        let depth = Queue.length t.work in
        Mutex.unlock t.mutex;
        let started_ns = Telemetry.Clock.now_ns () in
        let dom = (Domain.self () :> int) in
        let by_caller = dom = submitter in
        Telemetry.Context.with_ ctx (fun () ->
            Telemetry.Span.with_ ~name:"sched.chunk"
              ~attrs:
                [ ("batch", Telemetry.Span.Int batch_id);
                  ("chunk", Telemetry.Span.Int ci);
                  ("items", Telemetry.Span.Int (hi - lo));
                  ( "executor",
                    Telemetry.Span.Str (if by_caller then "caller" else "worker") );
                  ("queue_depth", Telemetry.Span.Int depth) ]
              (run_chunk lo hi));
        chunk_recs.(ci) <-
          Some
            { Sched.c_batch = batch_id;
              c_index = ci;
              c_items = hi - lo;
              c_enqueued_ns = enqueued_ns;
              c_started_ns = started_ns;
              c_finished_ns = Telemetry.Clock.now_ns ();
              c_domain = dom;
              c_by_caller = by_caller;
              c_queue_depth = depth }
      end
      else Telemetry.Context.with_ ctx (run_chunk lo hi);
      Mutex.lock t.mutex;
      remaining := !remaining - (hi - lo);
      if !remaining = 0 then Condition.broadcast all_done;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    let lo = ref 0 and ci = ref 0 in
    while !lo < n do
      let hi = min n (!lo + chunk_size) in
      Queue.add (chunk !ci !lo hi) t.work;
      lo := hi;
      incr ci
    done;
    Condition.broadcast t.wake;
    (* The caller drains the queue too; it only sleeps when every
       outstanding chunk is running in some other domain — that sleep is
       the batch's pure stall, attributed to [b_caller_blocked_s]. *)
    let blocked_ns = ref 0L in
    let rec drain () =
      match Queue.take_opt t.work with
      | Some task ->
        Mutex.unlock t.mutex;
        task ();
        Mutex.lock t.mutex;
        drain ()
      | None ->
        if !remaining > 0 then begin
          if sched_on then begin
            let w0 = Telemetry.Clock.now_ns () in
            Condition.wait all_done t.mutex;
            blocked_ns := Int64.add !blocked_ns (Telemetry.Clock.since_ns w0)
          end
          else Condition.wait all_done t.mutex;
          drain ()
        end
    in
    drain ();
    Mutex.unlock t.mutex;
    if sched_on then
      Sched.record_batch
        { Sched.b_id = batch_id;
          b_jobs = t.size;
          b_workers = worker_count t;
          b_items = n;
          b_chunks =
            List.filter_map Fun.id (Array.to_list chunk_recs);
          b_wall_s = Telemetry.Clock.since_s enqueued_ns;
          b_caller_blocked_s = Telemetry.Clock.to_s !blocked_ns };
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None ->
             (* remaining = 0 implies every slot filled *)
             failwith "Par.Pool.map: result slot left unfilled")
         out)
  end

let reraise (e : task_error) =
  (* surface the task's own backtrace; re-raising [e.exn] bare would
     point at this frame instead *)
  raise (Task_failed e)

let map_exn t f xs =
  List.map (function Ok y -> y | Error e -> reraise e) (map t f xs)

let map_list ?jobs f xs =
  match Jobs.resolve jobs with
  | 1 -> serial_map f xs
  | jobs -> with_ ~jobs (fun t -> map t f xs)

let map_list_exn ?jobs f xs =
  List.map (function Ok y -> y | Error e -> reraise e) (map_list ?jobs f xs)
