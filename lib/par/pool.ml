(* A one-shot parallel map on OCaml 5 domains (stdlib only: Domain and
   Atomic); the contract is in pool.mli.

   The caller and [jobs - 1] domains spawned for the call claim chunks
   from one atomic counter until it runs past the last chunk.  Each task
   writes its own result slot; [Domain.join] publishes a spawned
   domain's writes to the caller, and every spawned domain is joined
   before the call returns. *)

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

let serial_map f xs = List.mapi (run_one f) xs

(* Up to [count] domains running [body].  [Domain.spawn] signals domain
   exhaustion as [Failure]; that one case is absorbed (the call serves
   with the domains it got).  Anything else is a real fault and
   propagates. *)
let spawn count body =
  let rec go acc k =
    if k = 0 then acc
    else
      match Domain.spawn body with
      | d -> go (d :: acc) (k - 1)
      | exception Failure _ -> acc
  in
  go [] count

(* What a slot holds until its task has run; never returned, since every
   chunk has run once the spawned domains are joined. *)
let unfilled = Error { index = -1; exn = Not_found; backtrace = "" }

let pooled_map ~jobs f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let out = Array.make n unfilled in
  let ctx = Telemetry.Context.capture () in
  (* A few chunks per domain balances uneven tasks without a counter
     round-trip per item. *)
  let chunk_size = max 1 ((n + (jobs * 4) - 1) / (jobs * 4)) in
  let nchunks = (n + chunk_size - 1) / chunk_size in
  let next = Atomic.make 0 in
  (* Scheduler telemetry (Sched): one atomic read per call when off.
     When on, each chunk runs in a "sched.chunk" span and leaves a
     timestamped record in its own slot, published like [out]. *)
  let sched_on = Sched.enabled () in
  let batch_id = if sched_on then Sched.next_batch_id () else 0 in
  let chunk_recs = if sched_on then Array.make nchunks None else [||] in
  let start_ns = if sched_on then Telemetry.Clock.now_ns () else 0L in
  let caller = (Domain.self () :> int) in
  let run_chunk lo hi () =
    for i = lo to hi - 1 do
      out.(i) <- run_one f i items.(i)
    done
  in
  let chunk ci =
    let lo = ci * chunk_size in
    let hi = min n (lo + chunk_size) in
    if sched_on then begin
      let started_ns = Telemetry.Clock.now_ns () in
      let by_caller = (Domain.self () :> int) = caller in
      let executor = if by_caller then "caller" else "worker" in
      Telemetry.Context.with_ ctx (fun () ->
          Telemetry.Span.with_ ~name:"sched.chunk"
            ~attrs:
              [ ("batch", Telemetry.Span.Int batch_id);
                ("chunk", Telemetry.Span.Int ci);
                ("items", Telemetry.Span.Int (hi - lo));
                ("executor", Telemetry.Span.Str executor) ]
            (run_chunk lo hi));
      chunk_recs.(ci) <-
        Some
          { Sched.c_batch = batch_id;
            c_index = ci;
            c_items = hi - lo;
            c_started_ns = started_ns;
            c_finished_ns = Telemetry.Clock.now_ns ();
            c_by_caller = by_caller }
    end
    else Telemetry.Context.with_ ctx (run_chunk lo hi)
  in
  let rec claim () =
    let ci = Atomic.fetch_and_add next 1 in
    if ci < nchunks then begin
      chunk ci;
      claim ()
    end
  in
  (* Backtraces are captured only while the runtime records them, and
     the flag is per-domain in OCaml 5: turn it on in every domain. *)
  Printexc.record_backtrace true;
  let workers =
    spawn (jobs - 1) (fun () ->
        Printexc.record_backtrace true;
        claim ())
  in
  let missing = jobs - 1 - List.length workers in
  if missing > 0 then Telemetry.Metrics.incr ~n:missing "sched/pool-degraded";
  claim ();
  (* The caller has nothing left to claim: from here to the last join is
     the call's stall, attributed to [b_caller_blocked_s]. *)
  let idle_ns = if sched_on then Telemetry.Clock.now_ns () else 0L in
  List.iter Domain.join workers;
  if sched_on then
    Sched.record_batch
      { Sched.b_id = batch_id;
        b_jobs = jobs;
        b_workers = List.length workers;
        b_items = n;
        b_chunks = List.filter_map Fun.id (Array.to_list chunk_recs);
        b_wall_s = Telemetry.Clock.since_s start_ns;
        b_caller_blocked_s = Telemetry.Clock.since_s idle_ns };
  Array.to_list out

let map_list ?jobs f xs =
  match (Jobs.resolve jobs, xs) with
  | 1, _ | _, ([] | [ _ ]) -> serial_map f xs
  | jobs, _ -> pooled_map ~jobs f xs

let map_list_exn ?jobs f xs =
  (* raise the task's error, not [e.exn] bare: the registered printer
     then shows the task's own backtrace, not this frame *)
  List.map
    (function Ok y -> y | Error e -> raise (Task_failed e))
    (map_list ?jobs f xs)
