(* Scheduler telemetry for Par.Pool: per-chunk timestamps and
   batch-level stall/imbalance summaries.

   Follows the Telemetry.Memory discipline: a process-wide Atomic
   enablement flag that every parallel [Pool.map_list] call reads
   exactly once, so the instrumentation costs one atomic read when off
   and is a pure observer when on — chunk results are untouched either
   way.

   Collectors are process-global (one mutex) rather than domain-local:
   a batch record is built by the domain that made the call, and nested
   batches made from inside worker-run chunks must still reach the
   collector the outermost caller opened. *)

type chunk = {
  c_batch : int;         (* id of the batch this chunk belongs to *)
  c_index : int;         (* position within the batch, 0-based *)
  c_items : int;         (* tasks the chunk covers *)
  c_started_ns : int64;  (* an executor claimed the chunk *)
  c_finished_ns : int64; (* last task of the chunk completed *)
  c_by_caller : bool;    (* executed by the calling domain *)
}

type batch = {
  b_id : int;
  b_jobs : int;             (* requested concurrency *)
  b_workers : int;          (* domains spawned for it *)
  b_items : int;
  b_chunks : chunk list;    (* in chunk order *)
  b_wall_s : float;         (* call start to the last join *)
  b_caller_blocked_s : float;
                            (* caller joining, no chunk left to claim *)
}

(* --- enablement (Atomic: read by every domain, written by the CLI) --- *)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let with_enabled b f =
  let saved = Atomic.get enabled_flag in
  Atomic.set enabled_flag b;
  Fun.protect ~finally:(fun () -> Atomic.set enabled_flag saved) f

let batch_seq = Atomic.make 0

let next_batch_id () = Atomic.fetch_and_add batch_seq 1

(* --- derived per-chunk / per-batch figures --- *)

let chunk_exec_s c =
  Telemetry.Clock.to_s (Int64.sub c.c_finished_ns c.c_started_ns)

let busy_s b = List.fold_left (fun acc c -> acc +. chunk_exec_s c) 0. b.b_chunks

let imbalance b =
  match b.b_chunks with
  | [] -> 1.
  | chunks ->
    let n = float_of_int (List.length chunks) in
    let total = busy_s b in
    let worst = List.fold_left (fun m c -> Float.max m (chunk_exec_s c)) 0. chunks in
    if total <= 0. then 1. else worst /. (total /. n)

(* --- collectors (process-global, mutex-guarded) --- *)

let mutex = Mutex.create ()

(* reversed accumulation lists of every open [collect] scope; guarded by
   [mutex] (see the .cclint entry for this file) *)
let collectors : batch list ref list ref = ref []

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let collect f =
  let acc = ref [] in
  locked (fun () -> collectors := acc :: !collectors);
  let remove () =
    locked (fun () ->
        collectors := List.filter (fun c -> c != acc) !collectors)
  in
  let r = Fun.protect ~finally:remove f in
  (r, List.rev !acc)

let record_batch b =
  locked (fun () -> List.iter (fun acc -> acc := b :: !acc) !collectors)

(* --- aggregation over a collected run --- *)

type summary = {
  batches : int;
  chunks : int;
  caller_chunks : int;       (* run by the calling domain *)
  items : int;
  wall_s : float;            (* sum of batch walls *)
  busy_s : float;            (* sum of chunk execution times *)
  capacity_s : float;        (* sum of jobs x wall *)
  caller_blocked_s : float;
  mean_utilization : float;  (* busy over capacity; wall-weighted *)
  worst_imbalance : float;
}

let summarize batches =
  let z =
    { batches = 0; chunks = 0; caller_chunks = 0; items = 0; wall_s = 0.;
      busy_s = 0.; capacity_s = 0.; caller_blocked_s = 0.;
      mean_utilization = Float.nan; worst_imbalance = Float.nan }
  in
  match batches with
  | [] -> z
  | _ ->
    let s =
      List.fold_left
        (fun s b ->
           { batches = s.batches + 1;
             chunks = s.chunks + List.length b.b_chunks;
             caller_chunks =
               s.caller_chunks
               + List.length (List.filter (fun c -> c.c_by_caller) b.b_chunks);
             items = s.items + b.b_items;
             wall_s = s.wall_s +. b.b_wall_s;
             busy_s = s.busy_s +. busy_s b;
             capacity_s =
               s.capacity_s +. (float_of_int (max 1 b.b_jobs) *. b.b_wall_s);
             caller_blocked_s = s.caller_blocked_s +. b.b_caller_blocked_s;
             mean_utilization = s.mean_utilization;
             worst_imbalance = s.worst_imbalance })
        z batches
    in
    { s with
      mean_utilization =
        (if s.capacity_s <= 0. then 1.
         else Float.min 1. (s.busy_s /. s.capacity_s));
      worst_imbalance =
        List.fold_left (fun m b -> Float.max m (imbalance b)) 1. batches }

let summary_to_json s =
  Telemetry.Json.Obj
    [ ("batches", Telemetry.Json.Num (float_of_int s.batches));
      ("chunks", Telemetry.Json.Num (float_of_int s.chunks));
      ("caller_chunks", Telemetry.Json.Num (float_of_int s.caller_chunks));
      ("items", Telemetry.Json.Num (float_of_int s.items));
      ("wall_s", Telemetry.Json.Num s.wall_s);
      ("busy_s", Telemetry.Json.Num s.busy_s);
      ("caller_blocked_s", Telemetry.Json.Num s.caller_blocked_s);
      ("utilization", Telemetry.Json.Num s.mean_utilization);
      ("imbalance", Telemetry.Json.Num s.worst_imbalance) ]

let pp_summary ppf s =
  if s.batches = 0 then
    Format.fprintf ppf "no parallel batches recorded@."
  else
    Format.fprintf ppf
      "%d batch(es), %d chunk(s) (%d by the caller), %d item(s)@,\
       wall %.3f s  busy %.3f s of %.3f s capacity (jobs x wall)  \
       utilization %.0f%%  imbalance %.2fx@,\
       caller blocked %.3f s@."
      s.batches s.chunks s.caller_chunks s.items s.wall_s s.busy_s
      s.capacity_s (100. *. s.mean_utilization) s.worst_imbalance
      s.caller_blocked_s
