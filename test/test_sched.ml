(* Tests for scheduler observability (Par.Sched) and the cross-bit-width
   scaling probe (Ccdac.Scaling): recording is off by default and free
   when off, batch records have the right shape, nested batches reach
   the outer collector, spans and traces carry the sched.chunk surface,
   results stay bitwise identical with recording on or off, and the
   log-log exponent fit is pinned on synthetic data. *)

module T = Telemetry

(* Uneven per-item work so chunks genuinely differ in cost. *)
let busy_f i =
  let spin = (i * 7919) mod 97 in
  let acc = ref 0 in
  for k = 0 to spin * 40 do
    acc := !acc + k
  done;
  !acc + i

(* --- off by default / collect sees nothing when disabled --- *)

let test_disabled_by_default () =
  Alcotest.(check bool) "recording off by default" false (Par.Sched.enabled ());
  let (), batches =
    Par.Sched.collect (fun () ->
        ignore (Par.Pool.map_list_exn ~jobs:4 busy_f (List.init 64 Fun.id)))
  in
  Alcotest.(check int) "no batches recorded while off" 0 (List.length batches);
  let s = Par.Sched.summarize batches in
  Alcotest.(check int) "empty summary" 0 s.Par.Sched.batches;
  Alcotest.(check bool) "utilization is nan when unsampled" true
    (Float.is_nan s.Par.Sched.mean_utilization)

(* --- batch record shape --- *)

let test_batch_shape () =
  Par.Sched.with_enabled true @@ fun () ->
  let n = 64 in
  let results, batches =
    Par.Sched.collect (fun () ->
        Par.Pool.map_list_exn ~jobs:4 busy_f (List.init n Fun.id))
  in
  Alcotest.(check (list int)) "results unchanged"
    (List.map busy_f (List.init n Fun.id))
    results;
  match batches with
  | [ b ] ->
    Alcotest.(check int) "jobs" 4 b.Par.Sched.b_jobs;
    Alcotest.(check int) "items" n b.Par.Sched.b_items;
    let chunks = b.Par.Sched.b_chunks in
    Alcotest.(check bool) "several chunks" true (List.length chunks > 1);
    Alcotest.(check int) "chunk items cover the batch" n
      (List.fold_left (fun acc c -> acc + c.Par.Sched.c_items) 0 chunks);
    let indexes =
      List.sort Int.compare (List.map (fun c -> c.Par.Sched.c_index) chunks)
    in
    Alcotest.(check (list int)) "chunk indexes are 0..k-1"
      (List.init (List.length chunks) Fun.id)
      indexes;
    List.iter
      (fun c ->
         Alcotest.(check int) "chunk tagged with the batch id"
           b.Par.Sched.b_id c.Par.Sched.c_batch;
         Alcotest.(check bool) "exec time >= 0" true
           (Par.Sched.chunk_exec_s c >= 0.);
         Alcotest.(check bool) "wait time >= 0" true
           (Par.Sched.chunk_wait_s c >= 0.))
      chunks;
    Alcotest.(check bool) "wall covers the busy chunks" true
      (b.Par.Sched.b_wall_s > 0.);
    Alcotest.(check bool) "caller stall bounded by wall" true
      (b.Par.Sched.b_caller_blocked_s >= 0.
       && b.Par.Sched.b_caller_blocked_s <= b.Par.Sched.b_wall_s);
    let u = Par.Sched.utilization b in
    Alcotest.(check bool) "utilization in (0, 1]" true (u > 0. && u <= 1.);
    Alcotest.(check bool) "imbalance >= 1" true (Par.Sched.imbalance b >= 1.);
    let s = Par.Sched.summarize batches in
    Alcotest.(check int) "summary batches" 1 s.Par.Sched.batches;
    Alcotest.(check int) "summary chunks" (List.length chunks)
      s.Par.Sched.chunks;
    Alcotest.(check int) "summary caller split" s.Par.Sched.caller_chunks
      (List.length (List.filter (fun c -> c.Par.Sched.c_by_caller) chunks))
  | bs -> Alcotest.failf "expected exactly one batch, got %d" (List.length bs)

(* --- batches made inside pooled tasks reach the outer collector --- *)

let test_nested_batches () =
  Par.Sched.with_enabled true @@ fun () ->
  let sums, batches =
    Par.Sched.collect (fun () ->
        Par.Pool.map_list_exn ~jobs:2
          (fun i ->
             List.fold_left ( + ) 0
               (Par.Pool.map_list_exn ~jobs:2 (fun j -> (10 * i) + j)
                  [ 0; 1; 2 ]))
          [ 1; 2; 3 ])
  in
  Alcotest.(check (list int)) "nested results" [ 33; 63; 93 ] sums;
  (* one outer batch of 3 items and one inner batch of 3 per task *)
  Alcotest.(check int) "every batch collected" 4 (List.length batches);
  Alcotest.(check int) "items over all batches" 12
    (List.fold_left (fun acc b -> acc + b.Par.Sched.b_items) 0 batches);
  Alcotest.(check int) "distinct batch ids" 4
    (List.length
       (List.sort_uniq Int.compare
          (List.map (fun b -> b.Par.Sched.b_id) batches)))

(* --- pure observer: bitwise-identical results on vs off --- *)

let test_bitwise_invariant_map () =
  let xs = List.init 200 (fun i -> i - 17) in
  let f i = (i * 2654435761) lxor (i lsl 7) in
  let run on =
    Par.Sched.with_enabled on (fun () -> Par.Pool.map_list_exn ~jobs:4 f xs)
  in
  Alcotest.(check (list int)) "recording is a pure observer" (run false)
    (run true)

let test_flow_bitwise_invariant () =
  let fingerprint on =
    Par.Sched.with_enabled on @@ fun () ->
    let r = Ccdac.Flow.run ~bits:6 Ccplace.Style.Spiral in
    ( List.map Int64.bits_of_float
        [ r.Ccdac.Flow.f3db_mhz; r.Ccdac.Flow.max_inl; r.Ccdac.Flow.max_dnl;
          r.Ccdac.Flow.tau_fs; r.Ccdac.Flow.area;
          r.Ccdac.Flow.parasitics.Extract.Parasitics.total_wirelength ],
      r.Ccdac.Flow.parasitics.Extract.Parasitics.total_via_cuts )
  in
  List.iter
    (fun jobs ->
       Par.Jobs.set_default jobs;
       Fun.protect ~finally:Par.Jobs.clear_default @@ fun () ->
       let off = fingerprint false and on = fingerprint true in
       Alcotest.(check (pair (list int64) int))
         (Printf.sprintf "jobs=%d: flow identical with recording on/off" jobs)
         off on)
    [ 1; 4 ]

(* --- spans / trace surface --- *)

let test_sched_spans_and_trace () =
  let path = Filename.temp_file "ccdac_sched" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Par.Sched.with_enabled true @@ fun () ->
  let (), spans =
    T.Span.collect (fun () ->
        T.Sink.with_ (T.Sink.chrome_trace ~path) (fun () ->
            T.Span.with_ ~name:"root" (fun () ->
                ignore
                  (Par.Pool.map_list_exn ~jobs:4 busy_f (List.init 64 Fun.id)))))
  in
  let chunk_spans =
    List.filter (fun s -> String.equal s.T.Span.name "sched.chunk") spans
  in
  Alcotest.(check bool) "sched.chunk spans collected" true (chunk_spans <> []);
  List.iter
    (fun s ->
       Alcotest.(check bool) "span carries executor" true
         (List.mem_assoc "executor" s.T.Span.attrs))
    chunk_spans;
  let ic = open_in path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  let contains needle =
    let nl = String.length needle and bl = String.length body in
    let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "trace has sched.chunk slices" true
    (contains "sched.chunk")

(* --- the pay-nothing-when-off contract, per map call --- *)

let test_inactive_overhead () =
  Alcotest.(check bool) "recording off" false (Par.Sched.enabled ());
  let xs = List.init 64 Fun.id in
  ignore (Par.Pool.map_list_exn ~jobs:4 busy_f xs);
  let n = 50 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Par.Pool.map_list_exn ~jobs:4 busy_f xs)
  done;
  let per_map = (Gc.minor_words () -. w0) /. float_of_int n in
  (* A 64-item call allocates ~item slots + result list + the spawned
     domains' handles regardless of instrumentation; the bound leaves
     that room but would catch per-chunk timestamp/record allocation on
     the off path (each Gc/clock record costs hundreds of words x 16
     chunks). *)
  Alcotest.(check bool)
    (Printf.sprintf "off-path map allocates < 4096 words (got %.0f)" per_map)
    true (per_map < 4096.)

(* --- the exponent fit, on synthetic data --- *)

let test_fit_loglog () =
  let quad =
    List.map (fun x -> (x, 3. *. (x ** 2.))) [ 16.; 64.; 256.; 1024. ]
  in
  (match Ccdac.Scaling.fit_loglog quad with
   | None -> Alcotest.fail "quadratic data must fit"
   | Some (slope, r2) ->
     Alcotest.(check (float 1e-6)) "quadratic slope" 2. slope;
     Alcotest.(check (float 1e-6)) "perfect fit" 1. r2);
  (match Ccdac.Scaling.fit_loglog [ (16., 5.); (64., 5.); (256., 5.) ] with
   | None -> Alcotest.fail "constant data must fit"
   | Some (slope, r2) ->
     Alcotest.(check (float 1e-9)) "flat slope" 0. slope;
     Alcotest.(check (float 1e-9)) "flat series is a perfect fit" 1. r2);
  Alcotest.(check bool) "one x value cannot fit" true
    (Ccdac.Scaling.fit_loglog [ (64., 1.); (64., 2.) ] = None);
  Alcotest.(check bool) "non-positive x dropped" true
    (Ccdac.Scaling.fit_loglog [ (0., 1.); (-1., 2.); (64., 3.) ] = None);
  (* y = 0 is floored, not log(0): the fit stays finite *)
  match Ccdac.Scaling.fit_loglog [ (16., 0.); (64., 0.1) ] with
  | None -> Alcotest.fail "floored data must fit"
  | Some (slope, _) ->
    Alcotest.(check bool) "finite slope on floored y" true
      (Float.is_finite slope)

(* --- a small ladder end to end --- *)

let test_scaling_run_shape () =
  (* enough trials that the Monte-Carlo stage reaches the pool *)
  let trials = Dacmodel.Montecarlo.min_parallel_trials in
  let t =
    Par.Sched.with_enabled true (fun () ->
        Ccdac.Scaling.run ~trials ~seed:1 ~jobs:2 [ 4; 5; 6 ])
  in
  Alcotest.(check int) "three rungs" 3 (List.length t.Ccdac.Scaling.points);
  let cells =
    List.map (fun p -> p.Ccdac.Scaling.p_cells) t.Ccdac.Scaling.points
  in
  Alcotest.(check bool) "cells strictly grow" true
    (List.sort_uniq Int.compare cells = cells);
  List.iter
    (fun (p : Ccdac.Scaling.point) ->
       List.iter
         (fun stage ->
            Alcotest.(check bool)
              (Printf.sprintf "b%d has the %s stage" p.Ccdac.Scaling.p_bits
                 stage)
              true
              (List.mem_assoc stage p.Ccdac.Scaling.p_stage_s))
         [ "place"; "route"; "extract"; "analyse"; "mc"; "total" ];
       Alcotest.(check bool) "memory series sampled" true
         (List.length p.Ccdac.Scaling.p_stage_alloc_mb > 0))
    t.Ccdac.Scaling.points;
  (* >= 4 fitted flow stages, as the ledger contract requires *)
  Alcotest.(check bool) "at least four fitted stages" true
    (List.length t.Ccdac.Scaling.fits >= 4);
  List.iter
    (fun (f : Ccdac.Scaling.fit) ->
       Alcotest.(check bool)
         (f.Ccdac.Scaling.f_stage ^ " exponent finite")
         true
         (Float.is_finite f.Ccdac.Scaling.f_exponent))
    t.Ccdac.Scaling.fits;
  Alcotest.(check bool) "total stage fitted" true
    (List.mem_assoc "total" (Ccdac.Scaling.exponents t));
  (* parallel sections ran under the probe, so the sched series is live *)
  let s = Ccdac.Scaling.sched_totals t in
  Alcotest.(check bool) "ladder recorded scheduler batches" true
    (s.Par.Sched.batches > 0);
  Alcotest.(check bool) "ladder utilization in (0, 1]" true
    (s.Par.Sched.mean_utilization > 0. && s.Par.Sched.mean_utilization <= 1.)

let () =
  Alcotest.run "sched"
    [ ( "recording",
        [ Alcotest.test_case "disabled by default" `Quick
            test_disabled_by_default;
          Alcotest.test_case "batch shape" `Quick test_batch_shape;
          Alcotest.test_case "nested batches" `Quick test_nested_batches;
          Alcotest.test_case "inactive overhead" `Quick test_inactive_overhead
        ] );
      ( "determinism",
        [ Alcotest.test_case "map bitwise invariant" `Quick
            test_bitwise_invariant_map;
          Alcotest.test_case "flow bitwise invariant" `Quick
            test_flow_bitwise_invariant ] );
      ( "surface",
        [ Alcotest.test_case "spans and chrome trace" `Quick
            test_sched_spans_and_trace ] );
      ( "scaling",
        [ Alcotest.test_case "fit_loglog" `Quick test_fit_loglog;
          Alcotest.test_case "small ladder" `Quick test_scaling_run_shape ] )
    ]
