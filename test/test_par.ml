(* Tests for the parallel execution subsystem: the one-shot map's
   ordering / fault-isolation / nesting contract, the counter-based
   RNG substreams, and the bitwise-determinism guarantee of every ?jobs
   entry point (Monte-Carlo, sweeps). *)

let tech = Tech.Process.finfet_12nm

(* --- Jobs resolution --- *)

let test_jobs_resolution () =
  Alcotest.(check int) "explicit wins" 3 (Par.Jobs.resolve (Some 3));
  Alcotest.(check bool) "explicit clamps to 1" true
    (Par.Jobs.resolve (Some (-2)) = 1);
  Par.Jobs.set_default 5;
  Alcotest.(check int) "set_default" 5 (Par.Jobs.default ());
  Alcotest.(check int) "default feeds resolve" 5 (Par.Jobs.resolve None);
  Par.Jobs.set_default 0;
  Alcotest.(check bool) "0 means auto" true
    (Par.Jobs.default () = Par.Jobs.auto () && Par.Jobs.auto () >= 1);
  Par.Jobs.clear_default ();
  (* after clearing, resolution falls back to CCDAC_JOBS or 1 — both >= 1 *)
  Alcotest.(check bool) "cleared default >= 1" true (Par.Jobs.default () >= 1)

let test_jobs_of_string () =
  let check name expect s =
    Alcotest.(check (option int)) name expect (Par.Jobs.of_string s)
  in
  check "positive" (Some 3) "3";
  check "whitespace trimmed" (Some 4) "  4 ";
  check "0 means auto" (Some (Par.Jobs.auto ())) "0";
  check "empty" None "";
  check "blank" None "   ";
  check "negative" None "-2";
  check "non-numeric" None "lots";
  check "trailing junk" None "4x"

(* --- Pool: ordering --- *)

let test_pool_ordering () =
  let xs = List.init 100 Fun.id in
  (* uneven per-task work scrambles completion order; slots must not care *)
  let f i =
    let spin = (i * 7919) mod 97 in
    let acc = ref 0 in
    for k = 0 to spin * 50 do
      acc := !acc + k
    done;
    ignore !acc;
    i * i
  in
  Alcotest.(check (list int)) "submission order"
    (List.map (fun i -> i * i) xs)
    (Par.Pool.map_list_exn ~jobs:4 f xs)

let test_pool_matches_serial () =
  let xs = List.init 57 (fun i -> i - 5) in
  let f i = (i * 31) lxor 255 in
  let serial = Par.Pool.map_list_exn ~jobs:1 f xs in
  List.iter
    (fun jobs ->
       Alcotest.(check (list int))
         (Printf.sprintf "jobs=%d" jobs)
         serial
         (Par.Pool.map_list_exn ~jobs f xs))
    [ 2; 4; 8 ]

(* --- Pool: fault isolation --- *)

let test_pool_fault_isolation () =
  let results =
    Par.Pool.map_list ~jobs:4
      (fun i -> if i mod 3 = 0 then failwith (string_of_int i) else i)
      (List.init 10 Fun.id)
  in
  Alcotest.(check int) "every slot filled" 10 (List.length results);
  List.iteri
    (fun i r ->
       match r with
       | Ok v ->
         Alcotest.(check bool) "ok slot" true (i mod 3 <> 0 && v = i)
       | Error e ->
         Alcotest.(check bool) "error slot" true (i mod 3 = 0);
         Alcotest.(check int) "error carries its index" i e.Par.Pool.index;
         (match e.Par.Pool.exn with
          | Failure msg -> Alcotest.(check string) "exn" (string_of_int i) msg
          | _ -> Alcotest.fail "unexpected exception"))
    results

let test_pool_map_exn_raises () =
  match
    Par.Pool.map_list_exn ~jobs:2
      (fun i -> if i = 7 then raise Exit else i)
      (List.init 12 Fun.id)
  with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Par.Pool.Task_failed e ->
    Alcotest.(check int) "first failing index" 7 e.Par.Pool.index;
    Alcotest.(check bool) "exn preserved" true (e.Par.Pool.exn = Exit)

(* --- Pool: failed tasks always carry a backtrace --- *)

(* An out-of-line raiser the optimiser won't flatten away, so the
   captured trace has at least one real frame. *)
let[@inline never] deep_raise i =
  if i >= 0 then failwith "sched backtrace probe" else ignore i

let test_pool_backtrace () =
  (* the parallel path enables backtrace recording on the caller and every
     spawned domain, so the error slot's backtrace is non-empty whichever
     domain ran the task *)
  let results =
    Par.Pool.map_list ~jobs:3 (fun i -> deep_raise i) (List.init 8 Fun.id)
  in
  List.iter
    (fun r ->
       match r with
       | Ok () -> Alcotest.fail "task should have failed"
       | Error e ->
         Alcotest.(check bool) "backtrace captured" true
           (String.length (String.trim e.Par.Pool.backtrace) > 0))
    results

(* Task_failed's registered printer names the task, its exception and,
   when there is one, the task's own backtrace. *)
let test_pool_task_failed_printer () =
  let failed backtrace =
    Printexc.to_string
      (Par.Pool.Task_failed
         { Par.Pool.index = 7; exn = Failure "boom"; backtrace })
  in
  Alcotest.(check string) "no backtrace"
    "Par.Pool.Task_failed(task 7: Failure(\"boom\"))" (failed "");
  Alcotest.(check string) "with backtrace"
    "Par.Pool.Task_failed(task 7: Failure(\"boom\"))\nTask backtrace:\n\
     Raised at Probe.f\n"
    (failed "Raised at Probe.f\n")

(* --- Pool: a task may itself map in parallel --- *)

let test_pool_nested () =
  let sums =
    Par.Pool.map_list_exn ~jobs:2
      (fun i ->
         List.fold_left ( + ) 0
           (Par.Pool.map_list_exn ~jobs:2 (fun j -> (10 * i) + j) [ 0; 1; 2 ]))
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "nested maps" [ 33; 63; 93 ] sums

(* --- Pool: telemetry inheritance + exact concurrent increments --- *)

let test_pool_metrics_inheritance () =
  let (), dump =
    Telemetry.Metrics.collect (fun () ->
        ignore
          (Par.Pool.map_list_exn ~jobs:4
             (fun _ -> Telemetry.Metrics.incr "flow/runs_total")
             (List.init 1000 Fun.id)))
  in
  (* 4 domains hammering one mutex-guarded store: no lost updates *)
  Alcotest.(check int) "exact count under contention" 1000
    (Telemetry.Metrics.counter dump "flow/runs_total")

let test_pool_span_inheritance () =
  let (), spans =
    Telemetry.Span.collect (fun () ->
        ignore
          (Par.Pool.map_list_exn ~jobs:3
             (fun i ->
                Telemetry.Span.with_ ~name:(Printf.sprintf "task%d" i)
                  (fun () -> i))
             [ 0; 1; 2; 3 ]))
  in
  let names = List.sort String.compare (List.map (fun s -> s.Telemetry.Span.name) spans) in
  Alcotest.(check (list string)) "worker spans delivered to submitter"
    [ "task0"; "task1"; "task2"; "task3" ] names

(* --- RNG substreams --- *)

let test_rng_substreams () =
  let seq seed index n =
    let st = Par.Rng.state ~seed ~index in
    List.init n (fun _ -> Random.State.bits st)
  in
  Alcotest.(check (list int)) "pure function of (seed, index)"
    (seq 42 7 16) (seq 42 7 16);
  Alcotest.(check bool) "index separates streams" true
    (seq 42 7 16 <> seq 42 8 16);
  Alcotest.(check bool) "seed separates streams" true
    (seq 42 7 16 <> seq 43 7 16);
  Alcotest.(check bool) "draw is deterministic" true
    (Par.Rng.draw ~seed:1 ~index:2 3 = Par.Rng.draw ~seed:1 ~index:2 3);
  Alcotest.(check bool) "mix avalanches" true (Par.Rng.mix 1L <> 1L)

(* The in-place substream draws what [Random.State] draws from the
   reference state: [float] is [Random.State.float st 1.] bit for bit,
   fresh or re-seeded, over 1,030 (seed, index) pairs x 64 draws. *)
let test_rng_in_place_matches_random_state () =
  let seeds =
    [ 0; 1; -1; 42; -987_654_321; 0x5eed; 10_000; 1 lsl 40; max_int; min_int ]
  in
  let indices = List.init 100 Fun.id @ [ -1; max_int; min_int ] in
  let reused = Par.Rng.substream ~seed:0 ~index:0 in
  let u = Array.make 64 0. in
  let pairs = ref 0 in
  List.iter
    (fun seed ->
       List.iter
         (fun index ->
            incr pairs;
            let st = Par.Rng.state ~seed ~index in
            let fresh = Par.Rng.substream ~seed ~index in
            Par.Rng.reseed reused ~seed ~index;
            Par.Rng.floats reused u;
            Array.iteri
              (fun k from_reused ->
                 let want = Random.State.float st 1. in
                 let got = Par.Rng.float fresh in
                 if Int64.bits_of_float got <> Int64.bits_of_float want
                 || Int64.bits_of_float from_reused <> Int64.bits_of_float want
                 then
                   Alcotest.failf
                     "seed %d index %d draw %d: %h (re-seeded %h) vs \
                      Random.State %h"
                     seed index k got from_reused want)
              u)
         indices)
    seeds;
  Alcotest.(check int) "pairs checked" 1030 !pairs

(* --- Monte-Carlo: bitwise determinism across worker counts --- *)

let spiral6 = Ccplace.Style.place ~bits:6 Ccplace.Style.Spiral

let test_mc_bitwise_determinism () =
  let run jobs = Dacmodel.Montecarlo.run tech ~seed:7 ~jobs ~trials:500 spiral6 in
  let reference = run 1 in
  List.iter
    (fun jobs ->
       (* record equality is float equality field-by-field: bitwise *)
       Alcotest.(check bool)
         (Printf.sprintf "jobs=%d identical to serial" jobs)
         true
         (run jobs = reference))
    [ 2; 4 ];
  (* per-trial curves too, not just the aggregates *)
  let curves jobs =
    Dacmodel.Montecarlo.trial_curves tech ~seed:7 ~jobs ~trials:100 spiral6
  in
  Alcotest.(check bool) "trial curves identical" true (curves 1 = curves 4)

(* Below [min_parallel_trials] the trials run serially at any [jobs]: no
   scheduler batch is recorded.  From it on they reach the pool, as
   ranges of [range_trials].  The statistics and the per-trial curves are
   bitwise identical at jobs 1/2/4 below, at and above the threshold,
   where the last count ends in a short range; and trial [i] is the same
   whatever the trial count, so a range that starts one trial off shows
   as a curve that differs from the serial run's prefix. *)
let test_mc_serial_threshold () =
  let threshold = Dacmodel.Montecarlo.min_parallel_trials in
  let range = Dacmodel.Montecarlo.range_trials in
  let above = (2 * threshold) + (range / 2) + 1 in
  Alcotest.(check bool) "a count that ends in a short range" true
    (above mod range <> 0);
  let serial_prefix =
    Dacmodel.Montecarlo.trial_curves tech ~seed:11 ~jobs:1 ~trials:(range + 3)
      spiral6
  in
  List.iter
    (fun (trials, pooled) ->
       let run jobs =
         Par.Sched.with_enabled true (fun () ->
             Par.Sched.collect (fun () ->
                 Dacmodel.Montecarlo.run tech ~seed:11 ~jobs ~trials spiral6))
       in
       let curves jobs =
         Dacmodel.Montecarlo.trial_curves tech ~seed:11 ~jobs ~trials spiral6
       in
       let reference, serial_batches = run 1 in
       let reference_curves = curves 1 in
       Alcotest.(check int) (Printf.sprintf "%d trials, jobs=1: no batch" trials) 0
         (List.length serial_batches);
       List.iter
         (fun jobs ->
            let stats, batches = run jobs in
            let inls, dnls = curves jobs in
            let what = Printf.sprintf "%d trials, jobs=%d" trials jobs in
            Alcotest.(check bool) (what ^ ": identical to serial") true
              (stats = reference);
            Alcotest.(check bool) (what ^ ": curves identical to serial") true
              ((inls, dnls) = reference_curves);
            Alcotest.(check int) (what ^ ": one curve entry per trial") trials
              (Array.length inls);
            Alcotest.(check bool) (what ^ ": trial i is the serial trial i") true
              (Array.sub inls 0 (range + 3) = fst serial_prefix
               && Array.sub dnls 0 (range + 3) = snd serial_prefix);
            Alcotest.(check bool) (what ^ ": pool batch iff at the threshold") pooled
              (batches <> []))
         [ 2; 4 ])
    [ (threshold - 1, false); (threshold, true); (above, true) ]

let test_mc_seed_sensitivity () =
  let run seed = Dacmodel.Montecarlo.run tech ~seed ~jobs:2 ~trials:100 spiral6 in
  Alcotest.(check bool) "different seeds differ" true (run 1 <> run 2)

(* --- percentile: ceiling nearest-rank convention --- *)

let test_percentile_ceiling_rank () =
  let a = Array.init 20 (fun i -> float_of_int (i + 1)) in
  (* ceil(0.95 * 20) = 19 -> the 19th smallest.  The old floor rule
     picked the 18th — the small-n bias this pins against. *)
  Alcotest.(check (float 0.)) "p95 of 20" 19. (Dacmodel.Montecarlo.percentile a 0.95);
  Alcotest.(check (float 0.)) "median of 20" 10. (Dacmodel.Montecarlo.percentile a 0.5);
  Alcotest.(check (float 0.)) "q=1 is the max" 20. (Dacmodel.Montecarlo.percentile a 1.);
  Alcotest.(check (float 0.)) "q=0 clamps to the min" 1.
    (Dacmodel.Montecarlo.percentile a 0.);
  let b = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (float 0.)) "p95 of 4" 4. (Dacmodel.Montecarlo.percentile b 0.95);
  Alcotest.(check (float 0.)) "median of 4" 2. (Dacmodel.Montecarlo.percentile b 0.5);
  Alcotest.(check (float 0.)) "empty" 0. (Dacmodel.Montecarlo.percentile [||] 0.95)

(* selection against sort-then-index: any order, many duplicates, and
   the array left a permutation of its input *)
let prop_percentile_selects_sorted_rank =
  let open QCheck.Gen in
  let gen =
    int_range 1 2000 >>= fun n ->
    int_range 1 n >>= fun distinct ->
    pair
      (array_size (return n) (map (fun v -> float_of_int v /. 7.) (int_range (-distinct) distinct)))
      (oneofl [ 0.; 0.5; 0.95; 1. ])
  in
  QCheck.Test.make ~name:"selection = sort-then-index" ~count:300 (QCheck.make gen)
    (fun (a, q) ->
       let sorted = Array.copy a in
       Array.sort Float.compare sorted;
       let n = Array.length a in
       let rank = int_of_float (Float.ceil (float_of_int n *. q)) in
       let expected = sorted.(Int.max 0 (Int.min (n - 1) (rank - 1))) in
       let got = Dacmodel.Montecarlo.percentile a q in
       Array.sort Float.compare a;
       Float.equal got expected && a = sorted)

(* --- Sweep: identical rows at any worker count --- *)

let fingerprint (r : Ccdac.Flow.result) =
  ( Ccplace.Style.name r.Ccdac.Flow.style,
    ( r.Ccdac.Flow.f3db_mhz,
      r.Ccdac.Flow.max_inl,
      r.Ccdac.Flow.max_dnl,
      r.Ccdac.Flow.area ) )

let test_sweep_row_determinism () =
  let row jobs = List.map fingerprint (Ccdac.Sweep.row ~tech ~jobs ~bits:4 ()) in
  let reference = row 1 in
  Alcotest.(check int) "four methods" 4 (List.length reference);
  List.iter
    (fun jobs ->
       Alcotest.(check bool)
         (Printf.sprintf "row jobs=%d identical" jobs)
         true
         (row jobs = reference))
    [ 2; 4 ]

let () =
  Alcotest.run "par"
    [ ( "jobs",
        [ Alcotest.test_case "resolution order" `Quick test_jobs_resolution;
          Alcotest.test_case "of_string edges" `Quick test_jobs_of_string ] );
      ( "pool",
        [ Alcotest.test_case "ordering" `Quick test_pool_ordering;
          Alcotest.test_case "matches serial" `Quick test_pool_matches_serial;
          Alcotest.test_case "fault isolation" `Quick test_pool_fault_isolation;
          Alcotest.test_case "map_exn raises first" `Quick
            test_pool_map_exn_raises;
          Alcotest.test_case "task backtraces" `Quick test_pool_backtrace;
          Alcotest.test_case "task_failed printer" `Quick
            test_pool_task_failed_printer;
          Alcotest.test_case "nested map" `Quick test_pool_nested;
          Alcotest.test_case "metrics inheritance" `Quick
            test_pool_metrics_inheritance;
          Alcotest.test_case "span inheritance" `Quick
            test_pool_span_inheritance ] );
      ( "rng",
        [ Alcotest.test_case "substreams" `Quick test_rng_substreams;
          Alcotest.test_case "in place = Random.State" `Quick
            test_rng_in_place_matches_random_state ] );
      ( "determinism",
        [ Alcotest.test_case "monte-carlo bitwise" `Quick
            test_mc_bitwise_determinism;
          Alcotest.test_case "monte-carlo serial threshold" `Quick
            test_mc_serial_threshold;
          Alcotest.test_case "seed sensitivity" `Quick test_mc_seed_sensitivity;
          Alcotest.test_case "sweep row" `Quick test_sweep_row_determinism ] );
      ( "percentile",
        [ Alcotest.test_case "ceiling nearest-rank" `Quick
            test_percentile_ceiling_rank;
          QCheck_alcotest.to_alcotest prop_percentile_selects_sorted_rank ] ) ]
