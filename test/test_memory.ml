(* Tests for Telemetry.Memory: allocation-delta sanity, the
   pay-nothing-when-inactive contract, bitwise determinism of flow
   results with sampling on vs off at several --jobs values, and
   cross-domain attribution — a stage span that fans out through
   Par.Pool must absorb its workers' allocation, and only its own. *)

module T = Telemetry

let words_per_mb = 1048576 / (Sys.word_size / 8)

(* Allocate [mb] mebibytes in sub-Max_young_wosize chunks so every word
   goes through the minor heap, where Gc.minor_words tracks the live
   allocation pointer exactly (large arrays go straight to the major
   heap, whose counters only refresh at GC events). *)
let churn_mb mb =
  let chunks = mb * words_per_mb / 128 in
  let keep = ref 0. in
  for _ = 1 to chunks do
    let a = Sys.opaque_identity (Array.make 128 1.) in
    keep := !keep +. a.(0)
  done;
  !keep

let test_disabled_is_free () =
  Alcotest.(check bool) "sampling off by default" false (T.Memory.enabled ());
  Alcotest.(check bool) "start yields nothing" true (T.Memory.start () = None);
  let (), spans =
    T.Span.collect (fun () ->
        T.Span.with_ ~name:"quiet" (fun () -> ignore (churn_mb 1)))
  in
  List.iter
    (fun s ->
       Alcotest.(check bool) "span carries no delta" true (s.T.Span.mem = None))
    spans

let test_alloc_delta_sanity () =
  T.Memory.with_enabled true @@ fun () ->
  let (), spans =
    T.Span.collect (fun () ->
        T.Span.with_ ~name:"churn" (fun () -> ignore (churn_mb 8)))
  in
  match (List.hd spans).T.Span.mem with
  | None -> Alcotest.fail "sampling on but span has no delta"
  | Some d ->
    let mb = T.Memory.allocated_mb d in
    Alcotest.(check bool)
      (Printf.sprintf "churn of 8 MB reports >= 8 MB (got %.2f)" mb)
      true (mb >= 8.);
    (* headers add < 2 words per 128-word chunk; anything past 2x means
       double counting (own delta + ledger echo) *)
    Alcotest.(check bool)
      (Printf.sprintf "no double counting (got %.2f)" mb)
      true (mb < 16.);
    Alcotest.(check bool) "collections are non-negative" true
      (d.T.Memory.minor_collections >= 0 && d.T.Memory.major_collections >= 0)

(* The inactive fast path: sampling off, no span sinks — a span must cost
   (almost) nothing, allocation included.  The bound is generous (64
   words/span covers the closure the optional-argument wrapper builds)
   but catches any accidental Gc.quick_stat record on the fast path
   (~250 words each). *)
let test_inactive_overhead () =
  let body () = Sys.opaque_identity 0 in
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (T.Span.with_ ~name:"idle" body)
  done;
  let per_span = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "inactive span allocates < 64 words (got %.1f)" per_span)
    true (per_span < 64.)

(* Sampling must be a pure observer: the flow's numerical results are
   bitwise identical with it on or off, at any worker count. *)
let test_flow_bitwise_invariant () =
  let fingerprint sampled =
    T.Memory.with_enabled sampled @@ fun () ->
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
         (Printf.sprintf "jobs=%d: sampling is a pure observer" jobs)
         off on)
    [ 1; 4 ]

(* Worker-domain attribution: a span fanning 16 MB of allocation out
   through a 4-worker pool reports it all (the submitter's counters see
   none of it without the ledger), while a sibling span doing trivial
   work stays near zero — workers' allocation lands on the right span. *)
let test_parallel_attribution () =
  T.Memory.with_enabled true @@ fun () ->
  let (), spans =
    T.Span.collect (fun () ->
        T.Span.with_ ~name:"fan" (fun () ->
            ignore
              (Par.Pool.map_list_exn ~jobs:4
                 (fun _ -> churn_mb 2)
                 [ 1; 2; 3; 4; 5; 6; 7; 8 ]));
        T.Span.with_ ~name:"quiet" (fun () -> Sys.opaque_identity ()))
  in
  let mem name =
    match
      (List.find (fun s -> String.equal s.T.Span.name name) spans).T.Span.mem
    with
    | Some d -> T.Memory.allocated_mb d
    | None -> Alcotest.fail (name ^ ": no delta")
  in
  let fan = mem "fan" and quiet = mem "quiet" in
  Alcotest.(check bool)
    (Printf.sprintf "fan-out span absorbs worker allocation (got %.2f)" fan)
    true (fan >= 16.);
  Alcotest.(check bool)
    (Printf.sprintf "no double counting across ledger (got %.2f)" fan)
    true (fan < 32.);
  Alcotest.(check bool)
    (Printf.sprintf "sibling span stays clean (got %.3f)" quiet)
    true (quiet < 1.)

(* Direct major allocations land in the span that makes them.  50
   arrays of 300 ints (15,000 words of payload) are too large for the
   minor heap; a following span that only runs Gc.minor allocates next to
   nothing.  With quick_stat's major and promoted words, which are
   process-wide and refresh only at GC events, the first span read 240
   words and the second about 15,000. *)
let test_major_alloc_attribution () =
  T.Memory.with_enabled true @@ fun () ->
  let keep = ref [] in
  let (), spans =
    T.Span.collect (fun () ->
        T.Span.with_ ~name:"major" (fun () ->
            for _ = 1 to 50 do
              keep := Array.make 300 0 :: !keep
            done);
        T.Span.with_ ~name:"gc" (fun () -> Gc.minor ()))
  in
  ignore (Sys.opaque_identity !keep);
  let words name =
    match
      (List.find (fun s -> String.equal s.T.Span.name name) spans).T.Span.mem
    with
    | Some d -> d.T.Memory.allocated_words
    | None -> Alcotest.fail (name ^ ": no delta")
  in
  let major = words "major" and gc = words "gc" in
  Alcotest.(check bool)
    (Printf.sprintf "allocating span reads its 15,000 words (got %.0f)" major)
    true (major >= 15_000. && major < 16_000.);
  Alcotest.(check bool)
    (Printf.sprintf "collecting span reads next to nothing (got %.0f)" gc)
    true (gc < 1_000.)

(* Summary plumbing: a recorded flow summary exposes per-stage deltas
   that add up (within rounding slack) to the root total. *)
let test_summary_memory () =
  T.Memory.with_enabled true @@ fun () ->
  let r = Ccdac.Flow.run ~bits:6 Ccplace.Style.Spiral in
  let s = r.Ccdac.Flow.telemetry in
  (match T.Summary.total_memory s with
   | None -> Alcotest.fail "flow summary has no memory total"
   | Some total ->
     let stage_sum =
       List.fold_left
         (fun acc (_, d) -> acc +. T.Memory.allocated_mb d)
         0. (T.Summary.memory_stages s)
     in
     let total_mb = T.Memory.allocated_mb total in
     Alcotest.(check bool)
       (Printf.sprintf "stages (%.2f MB) <= total (%.2f MB)" stage_sum
          total_mb)
       true (stage_sum <= total_mb +. 0.1));
  List.iter
    (fun stage ->
       Alcotest.(check bool) (stage ^ " has a delta") true
         (T.Summary.stage_memory s stage <> None))
    [ "place"; "route"; "extract"; "analyse" ]

(* In OCaml 5.1, Array.make — and Array.init, Array.map and
   Array.of_list, which start from it — runs a whole minor collection
   before it builds an array of more than 256 elements from a block
   still in the minor heap, and counts it under the runtime counter
   EV_C_FORCE_MINOR_MAKE_VECT.  Flow.run of the 16 designs the
   benchmark's signoff_pnr workload routes (four styles at 6, 8, 10 and
   12 bits) must build no such array. *)
let test_no_forced_minor () =
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let forced = ref 0 and lost = ref 0 in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_counter:(fun _ _ counter value ->
          match counter with
          | Runtime_events.EV_C_FORCE_MINOR_MAKE_VECT -> forced := !forced + value
          | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  let poll () = ignore (Runtime_events.read_poll cursor callbacks None : int) in
  poll ();
  forced := 0;
  List.iter
    (fun bits ->
       List.iter
         (fun style ->
            ignore (Ccdac.Flow.run ~bits style : Ccdac.Flow.result);
            poll ())
         Ccplace.Style.[ Rowwise; Chessboard; Spiral; block_default ~bits ])
    [ 6; 8; 10; 12 ];
  Runtime_events.free_cursor cursor;
  Runtime_events.pause ();
  Alcotest.(check int) "no runtime events lost" 0 !lost;
  Alcotest.(check int) "forced minor collections" 0 !forced

(* The 16 designs of the benchmark's signoff_pnr workload: four styles
   at 6, 8, 10 and 12 bits. *)
let signoff_designs =
  List.concat_map
    (fun bits ->
       List.map (fun style -> (bits, style))
         Ccplace.Style.[ Rowwise; Chessboard; Spiral; block_default ~bits ])
    [ 6; 8; 10; 12 ]

(* Minor-heap words allocated by one Flow.place_route ~verify:true pass
   of the 16 signoff designs, after a warm-up pass.  The count repeats
   exactly from run to run; 2,225,435 words when the routing plan still
   held a record per group and the placement checks built a cell pair
   or a point per cell. *)
let test_signoff_minor_words () =
  let pass () =
    List.iter
      (fun (bits, style) ->
         ignore (Ccdac.Flow.place_route ~verify:true ~bits style : _ * float))
      signoff_designs
  in
  pass ();
  let w0 = Gc.minor_words () in
  pass ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "at most 1.1M minor words (got %.0f)" words)
    true (words <= 1.1e6)

(* Major-heap words allocated by one Lvs.Check.run pass over the 16
   signoff layouts, routed as the flow routes them, after a warm-up pass:
   words allocated there directly (arrays past the minor heap's limit)
   plus words promoted to it, read live from this domain's counters.
   Reads about 678,000; 874,017 when every sweep sorted the points in
   both collinear scans and the major class for the crossing, and the
   union-find kept a size per shape. *)
let test_lvs_major_words () =
  let layouts =
    List.map
      (fun (bits, style) ->
         fst (Ccdac.Flow.place_route ~verify:false ~bits style))
      signoff_designs
  in
  let pass () =
    List.iter
      (fun l -> ignore (Lvs.Check.run l : Lvs.Check.result))
      layouts
  in
  let major () =
    let _, _, major = Gc.counters () in
    major
  in
  pass ();
  let w0 = major () in
  pass ();
  let words = major () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "at most 0.70M major words (got %.0f)" words)
    true (words <= 0.70e6)

(* Minor words of one warmed covariance build of the 12-bit spiral: the
   two 128 x 128 transform planes, R's table and the cells.  Reads about
   41,300; 41,244 when C_0..C_4 were summed against every cell and the
   other 8 capacitors transformed, and 64,977 in a version that kept
   row, column and weight arrays per part. *)
let test_covariance_minor_words () =
  let tech = Tech.Process.finfet_12nm in
  let positions =
    Ccgrid.Placement.positions_by_cap tech (Ccplace.Style.place ~bits:12 Ccplace.Style.Spiral)
  in
  let build () = ignore (Capmodel.Covariance.build tech positions : Capmodel.Covariance.t) in
  build ();
  let w0 = Gc.minor_words () in
  build ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "at most 42,000 minor words (got %.0f)" words)
    true (words <= 42_000.)

(* Minor words of one warmed 1000-trial Monte-Carlo run of the 10-bit
   spiral given its covariance, serial: two MD5 digests per trial
   (8,000 words), the factor and the span; the two per-trial arrays go
   straight to the major heap.  Reads about 10,190; 267,157 when every trial
   built a Random.State, a seed array, its shift and normal arrays and a
   result pair. *)
let test_montecarlo_minor_words () =
  let tech = Tech.Process.finfet_12nm in
  let p = Ccplace.Style.place ~bits:10 Ccplace.Style.Spiral in
  let cov = Dacmodel.Nonlinearity.covariance tech p in
  let run () =
    ignore
      (Dacmodel.Montecarlo.run tech ~seed:1 ~cov ~jobs:1 ~trials:1000 p
       : Dacmodel.Montecarlo.t)
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "at most 10,500 minor words (got %.0f)" words)
    true (words <= 10_500.)

(* Words allocated by [f ()] after a warm-up call: minor-heap words, and
   words allocated directly in the major heap (blocks too large for the
   minor heap), read live from this domain's counters.  Both repeat
   exactly from run to run; promoted words, which depend on when the
   minor heap happens to fill, are left out. *)
let warmed_words f =
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  f ();
  let m0 = Gc.minor_words () and d0 = direct () in
  f ();
  (Gc.minor_words () -. m0, direct () -. d0)

(* One warmed Nonlinearity.covariance of the 12-bit spiral, read from the
   placement grid: the lattice's cells (C_10..C_12's arrays are direct
   major blocks), R's table and the two 128 x 128 transform planes.
   Reads 42,216 minor and 3,587 direct-major words; 73,193 and 7,174 when
   it built a boxed point per cell and snapped each back onto the
   lattice. *)
let test_grid_covariance_words () =
  let tech = Tech.Process.finfet_12nm in
  let p = Ccplace.Style.place ~bits:12 Ccplace.Style.Spiral in
  let minor, direct =
    warmed_words (fun () ->
        ignore (Dacmodel.Nonlinearity.covariance tech p : Capmodel.Covariance.t))
  in
  Alcotest.(check bool)
    (Printf.sprintf "at most 43,500 minor words (got %.0f)" minor)
    true (minor <= 43_500.);
  Alcotest.(check bool)
    (Printf.sprintf "at most 3,700 direct-major words (got %.0f)" direct)
    true (direct <= 3_700.)

(* One warmed Placement.positions_by_cap of the 12-bit spiral: a flat
   float record per cell (3 words) in per-capacitor arrays, C_10..C_12's
   direct major blocks.  Reads 15,453 minor and 3,587 direct-major
   words; 31,837 minor when each point came from Geom.Point.make, a call
   that boxed both floats first. *)
let test_positions_words () =
  let tech = Tech.Process.finfet_12nm in
  let p = Ccplace.Style.place ~bits:12 Ccplace.Style.Spiral in
  let minor, direct =
    warmed_words (fun () -> ignore (Ccgrid.Placement.positions_by_cap tech p))
  in
  Alcotest.(check bool)
    (Printf.sprintf "at most 16,000 minor words (got %.0f)" minor)
    true (minor <= 16_000.);
  Alcotest.(check bool)
    (Printf.sprintf "at most 3,700 direct-major words (got %.0f)" direct)
    true (direct <= 3_700.)

(* One warmed Parasitics.extract pass over the 16 signoff layouts, each
   solving its nets on one scratch sized for its largest net.  Reads
   50,470 minor and 301,472 direct-major words, most of the direct ones
   the scratches' arrays; 557,352 and 530,187 when every net built a
   fresh RC tree, provenance, adjacency, orientation and subtree array
   and boxed floats per edge, and the per-capacitor wire and via sums
   boxed the floats of their Tech.Parallel calls. *)
let test_extract_words () =
  let layouts =
    List.map
      (fun (bits, style) ->
         fst (Ccdac.Flow.place_route ~verify:false ~bits style))
      signoff_designs
  in
  let minor, direct =
    warmed_words (fun () ->
        List.iter
          (fun l -> ignore (Extract.Parasitics.extract l : Extract.Parasitics.t))
          layouts)
  in
  Alcotest.(check bool)
    (Printf.sprintf "at most 52,000 minor words (got %.0f)" minor)
    true (minor <= 52_000.);
  Alcotest.(check bool)
    (Printf.sprintf "at most 310,000 direct-major words (got %.0f)" direct)
    true (direct <= 310_000.)

(* What a routed 12-bit chessboard keeps alive: nearly every cell is its
   own group, so per-group blocks would dominate.  The size is the rise
   in live major-heap words across building it, each side read after a
   full major collection, once a small design has been routed; it reads
   within 0.05% of [Obj.reachable_words] of the layout, which counts the
   shared tech record too.  227,543 reachable words (1.74 MB) with a
   record per group and an attach record per strap. *)
let test_chessboard_retained () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  ignore
    (Ccroute.Layout.route Tech.Process.finfet_12nm (Ccplace.Chessboard.place ~bits:6)
     : Ccroute.Layout.t);
  let before = live () in
  let layout =
    Ccroute.Layout.route Tech.Process.finfet_12nm
      (Ccplace.Chessboard.place ~bits:12)
  in
  let mb = float_of_int (live () - before) /. float_of_int words_per_mb in
  ignore (Sys.opaque_identity layout);
  Alcotest.(check bool)
    (Printf.sprintf "at most 1.2 MB retained (got %.3f)" mb)
    true (mb <= 1.2)

let () =
  Alcotest.run "memory"
    [ ( "sampling",
        [ Alcotest.test_case "disabled is free" `Quick test_disabled_is_free;
          Alcotest.test_case "alloc delta sanity" `Quick
            test_alloc_delta_sanity;
          Alcotest.test_case "inactive overhead" `Quick test_inactive_overhead;
          Alcotest.test_case "major allocation attribution" `Quick
            test_major_alloc_attribution ] );
      ( "determinism",
        [ Alcotest.test_case "flow bitwise invariant" `Quick
            test_flow_bitwise_invariant ] );
      ( "domains",
        [ Alcotest.test_case "parallel attribution" `Quick
            test_parallel_attribution ] );
      ( "summary",
        [ Alcotest.test_case "flow summary memory" `Quick test_summary_memory
        ] );
      ( "gc",
        [ Alcotest.test_case "no forced minor collections" `Quick
            test_no_forced_minor;
          Alcotest.test_case "signoff minor words" `Quick
            test_signoff_minor_words;
          Alcotest.test_case "LVS major words" `Quick test_lvs_major_words;
          Alcotest.test_case "covariance minor words" `Quick
            test_covariance_minor_words;
          Alcotest.test_case "Monte-Carlo minor words" `Quick
            test_montecarlo_minor_words;
          Alcotest.test_case "chessboard retained size" `Quick
            test_chessboard_retained;
          Alcotest.test_case "grid covariance words" `Quick
            test_grid_covariance_words;
          Alcotest.test_case "positions words" `Quick test_positions_words;
          Alcotest.test_case "extract words" `Quick test_extract_words ] ) ]
