(* One run of one workload: the untraced run that gives the end-to-end
   metrics, or the traced run that gives the per-layer breakdown. *)

type metric = { name : string; value : float; unit_ : string; n : int }

type result = {
  metrics : metric list;  (* the declared metrics: the result line *)
  info : metric list;  (* printed and recorded, not gated *)
  attempted : int;
  failed : int;
  ops : int;  (* timed ops that completed *)
}

let m name value unit_ n = { name; value; unit_; n }

type tally = { mutable tries : int; mutable fails : int }

(* Any exception — Verify.Engine.Rejected, an output mismatch, anything
   else — fails the op; it is reported on stderr (the first few) and
   contributes no latency sample. *)
let attempt tally label f =
  tally.tries <- tally.tries + 1;
  match f () with
  | v -> Some v
  | exception e ->
    tally.fails <- tally.fails + 1;
    if tally.fails <= 5 then
      Printf.eprintf "benchmark: %s failed: %s\n%!" label (Printexc.to_string e);
    None

(* Closed loop: op i+1 starts when op i has returned, until [seconds]
   have passed and at least [min_ops] ops were issued.  Returns each
   completed op's value. *)
let loop tally ~seconds ~min_ops f =
  let t0 = Telemetry.Clock.now_ns () in
  let rec go i acc =
    if i > min_ops && Telemetry.Clock.since_s t0 >= seconds then List.rev acc
    else
      match attempt tally (Printf.sprintf "op %d" i) (fun () -> f i) with
      | Some v -> go (i + 1) (v :: acc)
      | None -> go (i + 1) acc
  in
  go 1 []

let seconds_of f =
  let t0 = Telemetry.Clock.now_ns () in
  ignore (f ());
  Telemetry.Clock.since_s t0

(* [loop] over an op, keeping each completed op's seconds. *)
let timed tally ~seconds ~min_ops op =
  loop tally ~seconds ~min_ops (fun i -> seconds_of (fun () -> op i))

(* setup_s: wall time from spawning a fresh copy of this program to its
   exit after it has prepared the workload's inputs and run the checked
   warm-up op — what a user pays before the first timed op.  The child's
   stdout goes to stderr so the last line of ours stays the result.  The
   probes are spread evenly over the run, between ops, so that their
   median sees the machine over the whole run rather than over its first
   two seconds. *)
let setup_samples = 7

let setup_probe tally ~args =
  let exe = Sys.executable_name in
  tally.tries <- tally.tries + 1;
  let t0 = Telemetry.Clock.now_ns () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stderr
      Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  let dt = Telemetry.Clock.since_s t0 in
  (match status with
   | Unix.WEXITED 0 -> ()
   | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
     tally.fails <- tally.fails + 1;
     prerr_endline "benchmark: set-up probe failed");
  dt

(* The calibration kernel: fixed code of the benchmark's own, allocating
   short-lived boxed floats like the flow does (about 17 ms on a 2-core
   Xeon VM).  On a shared machine the speed of such code drifts by up to
   1.75x over minutes while a pure arithmetic loop barely moves, so
   wall-clock medians of one run spread 10-30% across ten runs.  Timing
   this kernel right before every op and gating on op / kernel cancels
   most of the drift: that ratio spreads 1-6% (benchmark/README.md,
   "Noise").  It shares the process and its GC with the libraries, so a
   change that alters the live heap can move the kernel's minor and
   major collections, and so op_cal, too; op_s is printed beside it. *)
let calibrate () =
  let s = ref 0. in
  for _ = 1 to 100 do
    let l = List.init 10_000 (fun i -> float_of_int i *. 1.5) in
    s := !s +. List.fold_left ( +. ) 0. l
  done;
  Sys.opaque_identity !s

let words_to_mb w = w *. float_of_int (Sys.word_size / 8) /. 1e6

let ratio x y = if y > 0. then x /. y else 0.

let untraced (w : Workload.t) ~size ~seed ~seconds ~min_ops ~probe_args refs =
  let tally = { tries = 0; fails = 0 } in
  let setups = ref [] in
  let probe () = setups := setup_probe tally ~args:probe_args :: !setups in
  let inst = w.prepare size ~seed refs in
  ignore (attempt tally "warm-up" inst.warmup);
  let t0 = Telemetry.Clock.now_ns () in
  let samples =
    loop tally ~seconds ~min_ops (fun i ->
        (* probe k of setup_samples is due k / setup_samples into the run *)
        let k = List.length !setups in
        if k < setup_samples
           && Telemetry.Clock.since_s t0
              >= seconds *. float_of_int k /. float_of_int setup_samples
        then probe ();
        let cal = seconds_of calibrate in
        (seconds_of (fun () -> inst.op ~jobs:1 i), cal))
  in
  while List.length !setups < setup_samples do probe () done;
  let heap_mb = words_to_mb (float_of_int (Gc.quick_stat ()).top_heap_words) in
  let times = List.map fst samples and cals = List.map snd samples in
  let in_cal = List.map (fun (t, c) -> t /. c) samples in
  let n = List.length samples in
  { metrics =
      [ m "setup_s" (Stats.median !setups) "s" setup_samples;
        m "op_cal.p50" (Stats.median in_cal) "cal" n;
        m "op_cal.p75" (Stats.quantile in_cal 0.75) "cal" n;
        m "peak_heap_mb" heap_mb "MB" 1 ];
    info =
      [ m "op_s.p50" (Stats.median times) "s" n;
        m "op_s.p75" (Stats.quantile times 0.75) "s" n;
        m "ops_per_s" (ratio (float_of_int n) (List.fold_left ( +. ) 0. times)) "1/s" n;
        m "cal_s.p50" (Stats.median cals) "s" n ];
    attempted = tally.tries;
    failed = tally.fails;
    ops = n }

(* --- the traced run ---------------------------------------------------- *)

(* A layer of the per-layer breakdown: its span name (bench.<name>) and
   a deterministic count of the work it did in one traced op. *)
type layer = {
  lname : string;
  count_unit : string;
  per : string;
  work : Workload.traced -> float;
}

let sum f xs = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 xs)

let analysed (t : Workload.traced) =
  List.filter_map
    (fun (c : Workload.chain) -> Option.map (fun e -> (c, e)) c.extracted)
    t.chains

let cells (c : Workload.chain) = c.placement.rows * c.placement.cols

(* Kernel probes run outside the op: one covariance build and one
   Cholesky factorisation per placement the op analysed. *)
let probe_placements (t : Workload.traced) =
  List.map (fun ((c : Workload.chain), _) -> c.placement) (analysed t)
  @ Option.to_list (Option.map fst t.mc)

let unit_cells (p : Ccgrid.Placement.t) = Array.fold_left ( + ) 0 p.counts

let layers =
  [ { lname = "ccplace"; count_unit = "cells"; per = "cell";
      work = (fun t -> sum cells t.chains) };
    { lname = "ccroute"; count_unit = "tracks"; per = "track";
      work =
        (fun t ->
           sum (fun (c : Workload.chain) -> Ccroute.Plan.total_tracks c.layout.plan)
             t.chains) };
    { lname = "verify"; count_unit = "cells"; per = "cell";
      work = (fun t -> sum cells t.chains) };
    { lname = "lvs"; count_unit = "shapes"; per = "shape";
      work = (fun t -> sum (fun (c : Workload.chain) -> c.lvs.shapes) t.chains) };
    { lname = "extract"; count_unit = "cuts"; per = "cut";
      work =
        (fun t ->
           sum (fun (_, ((p : Extract.Parasitics.t), _)) -> p.total_via_cuts)
             (analysed t)) };
    { lname = "capmodel"; count_unit = "pairs"; per = "pair";
      work =
        (fun t ->
           sum (fun p -> let g = unit_cells p in g * (g - 1) / 2)
             (probe_placements t)) };
    { lname = "dacmodel.analyse"; count_unit = "codes"; per = "code";
      work =
        (fun t ->
           sum (fun ((c : Workload.chain), _) -> 1 lsl c.design.bits) (analysed t)) };
    { lname = "dacmodel.mc"; count_unit = "codes"; per = "code";
      work =
        (fun t ->
           match t.mc with
           | None -> 0.
           | Some (p, trials) -> float_of_int (trials lsl p.bits)) } ]

let probe_capmodel placement =
  let positions = Ccgrid.Placement.positions_by_cap Workload.tech placement in
  let cov =
    Workload.layer "capmodel" (fun () ->
        Capmodel.Covariance.build Workload.tech positions)
  in
  ignore (Workload.layer "capmodel.factorize" (fun () -> Capmodel.Gauss.factorize cov))

let spans_named name spans =
  List.filter (fun (s : Telemetry.Span.complete) -> String.equal s.name ("bench." ^ name)) spans

let busy_s name spans =
  List.fold_left
    (fun acc (s : Telemetry.Span.complete) -> acc +. Telemetry.Clock.to_s s.duration_ns)
    0. (spans_named name spans)

let alloc_mb name spans =
  List.fold_left
    (fun acc (s : Telemetry.Span.complete) ->
       match s.mem with
       | Some d -> acc +. words_to_mb d.allocated_words
       | None -> acc)
    0. (spans_named name spans)

(* Each distinct design of the traced run is also run through Flow.run
   once, untimed, and the layer-by-layer results must match it bit for
   bit. *)
let check_traced refs checked (t : Workload.traced) =
  List.iter
    (fun (c : Workload.chain) ->
       let key = Workload.key c.design in
       let traced = Workload.chain_summary c in
       Expected.check_design refs key traced;
       if not (Hashtbl.mem checked key) then begin
         let flow = Expected.of_flow (Ccdac.Flow.run ~bits:c.design.bits c.design.style) in
         Expected.check_faithful key ~traced ~flow;
         Hashtbl.replace checked key ()
       end)
    t.chains

(* The traced run: three phases of about [seconds / 3] each, serial
   unless stated.
   A: the workload's ops untraced at jobs=1;
   B: the same op sequence at the pool's jobs with scheduler telemetry on
      (par.*, and par.speedup = p50(A) / p50(B));
   C: traced ops, layer by layer, spans and allocation sampling on
      (the per-layer metrics, and trace.overhead_ratio = p50(C) / p50(A)). *)
let traced (w : Workload.t) ~size ~seed ~seconds ~min_ops ~trace_out refs =
  let tally = { tries = 0; fails = 0 } in
  let inst = w.prepare size ~seed refs in
  ignore (attempt tally "warm-up" inst.warmup);
  let phase = seconds /. 3. in
  let majors () = (Gc.quick_stat ()).major_collections in
  let gc0 = majors () in
  let a = timed tally ~seconds:phase ~min_ops (inst.op ~jobs:1) in
  let gc_a = majors () - gc0 in
  let b, batches =
    Par.Sched.with_enabled true (fun () ->
        Par.Sched.collect (fun () ->
            timed tally ~seconds:phase ~min_ops (inst.op ~jobs:(Workload.pool_jobs ()))))
  in
  let checked = Hashtbl.create 64 in
  let keep = Option.is_some trace_out in
  let all_spans = ref [] in
  let c =
    Telemetry.Memory.with_enabled true (fun () ->
        loop tally ~seconds:phase ~min_ops (fun i ->
            let (op_s, t), spans =
              Telemetry.Span.collect (fun () ->
                  let t0 = Telemetry.Clock.now_ns () in
                  let t =
                    Telemetry.Span.with_ ~name:"bench.op"
                      ~attrs:[ ("op", Telemetry.Span.Int i) ]
                      (fun () -> inst.traced_op i)
                  in
                  let op_s = Telemetry.Clock.since_s t0 in
                  List.iter probe_capmodel (probe_placements t);
                  (op_s, t))
            in
            check_traced refs checked t;
            if keep then all_spans := List.rev_append spans !all_spans;
            (op_s, t, spans)))
  in
  Option.iter
    (fun path ->
       let doc = Telemetry.Sink.events_json (List.rev !all_spans) in
       Out_channel.with_open_bin path (fun oc ->
           output_string oc (Telemetry.Json.to_string doc)))
    trace_out;
  let n_a = List.length a and n_b = List.length b and n_c = List.length c in
  let per_op f = Stats.median (List.map f c) in
  let op_p50 = per_op (fun (s, _, _) -> s) in
  let layer_metrics l =
    let s = per_op (fun (_, _, spans) -> busy_s l.lname spans) in
    let work = per_op (fun (_, t, _) -> l.work t) in
    [ m (l.lname ^ ".s_per_op") s "s" n_c;
      m (l.lname ^ ".share") (ratio s op_p50) "fraction" n_c;
      m (l.lname ^ ".work_per_op") work l.count_unit n_c;
      m (l.lname ^ ".ns_per_work") (ratio (s *. 1e9) work) ("ns/" ^ l.per) n_c;
      m (l.lname ^ ".alloc_mb_per_op")
        (per_op (fun (_, _, spans) -> alloc_mb l.lname spans))
        "MB" n_c ]
  in
  let sched = Par.Sched.summarize batches in
  let workers =
    List.fold_left (fun acc (bt : Par.Sched.batch) -> Int.max acc bt.b_workers) 0 batches
  in
  let contacts =
    per_op (fun (_, (t : Workload.traced), _) ->
        sum (fun (ch : Workload.chain) -> ch.lvs.contacts) t.chains)
  in
  { metrics =
      List.concat_map layer_metrics layers
      @ [ m "lvs.contacts_per_op" contacts "contacts" n_c;
          m "capmodel.factorize_s"
            (per_op (fun (_, _, spans) -> busy_s "capmodel.factorize" spans))
            "s" n_c;
          m "par.workers" (float_of_int workers) "domains" n_b;
          m "par.chunks_per_op" (ratio (float_of_int sched.chunks) (float_of_int n_b))
            "chunks" n_b;
          m "par.utilization" (if List.is_empty batches then 0. else sched.mean_utilization)
            "fraction" n_b;
          m "par.caller_blocked_s_per_op" (ratio sched.caller_blocked_s (float_of_int n_b))
            "s" n_b;
          m "par.speedup" (ratio (Stats.median a) (Stats.median b)) "ratio" n_b;
          m "gc.major_collections_per_op" (ratio (float_of_int gc_a) (float_of_int n_a))
            "collections" n_a;
          m "trace.overhead_ratio" (ratio op_p50 (Stats.median a)) "ratio" n_c ];
    info =
      [ m "phase_a.ops" (float_of_int n_a) "ops" n_a;
        m "phase_b.ops" (float_of_int n_b) "ops" n_b;
        m "phase_c.ops" (float_of_int n_c) "ops" n_c ];
    attempted = tally.tries;
    failed = tally.fails;
    ops = n_c }
