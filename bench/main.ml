(* Benchmark and reproduction harness.

   Regenerates every table and figure of the paper:

     dune exec bench/main.exe              all tables, figures, benchmarks
     dune exec bench/main.exe -- table1    one artefact
       (table1 table2 table3 fig2 fig3 fig4 fig5 fig6a fig6b ablation bench
        benchflow baseline memscale scaling csv)

   The file-writing artefacts (benchflow, baseline) take --out FILE to
   redirect their output; exactly one of them must be requested when
   --out is given.

   Table III is measured twice: once as wall-clock inside the flow (like
   the paper) and once as a Bechamel microbenchmark per (style, bits). *)

let tech = Tech.Process.finfet_12nm
let table_bits = [ 6; 7; 8; 9; 10 ]

(* one shared sweep for the metric tables *)
let rows =
  lazy (List.map (fun bits -> (bits, Ccdac.Sweep.row ~tech ~bits ())) table_bits)

let banner title =
  Printf.printf "\n================ %s ================\n" title

(* --- Tables I and II --- *)

let table1 () =
  banner "Table I";
  print_string (Ccdac.Report.table1 (Lazy.force rows))

let table2 () =
  banner "Table II";
  print_string (Ccdac.Report.table2 (Lazy.force rows))

(* --- Table III: wall-clock runtimes --- *)

let table3 () =
  banner "Table III (wall clock)";
  let runtimes =
    List.map
      (fun bits ->
         (* median of 5 runs to de-noise the very short times *)
         let median style =
           let times =
             List.init 5 (fun _ ->
                 snd (Ccdac.Flow.place_route ~tech ~bits style))
           in
           match List.sort Float.compare times with
           | _ :: _ :: m :: _ -> m
           | other -> List.fold_left Float.max 0. other
         in
         ( bits,
           median Ccplace.Style.Spiral,
           median (Ccplace.Style.block_default ~bits) ))
      table_bits
  in
  print_string (Ccdac.Report.table3 runtimes)

(* --- Bechamel microbenchmarks of the constructive P&R kernels --- *)

let bechamel_tests =
  let place_route style bits () =
    ignore (Ccdac.Flow.place_route ~tech ~bits style)
  in
  let mk style label =
    List.map
      (fun bits ->
         Bechamel.Test.make
           ~name:(Printf.sprintf "%s/%d-bit" label bits)
           (Bechamel.Staged.stage (place_route style bits)))
      table_bits
  in
  (* one grouped test per table workload *)
  [ Bechamel.Test.make_grouped ~name:"tableIII-spiral"
      (mk Ccplace.Style.Spiral "spiral");
    Bechamel.Test.make_grouped ~name:"tableIII-bc"
      (List.map
         (fun bits ->
            Bechamel.Test.make
              ~name:(Printf.sprintf "bc/%d-bit" bits)
              (Bechamel.Staged.stage
                 (place_route (Ccplace.Style.block_default ~bits) bits)))
         table_bits);
    Bechamel.Test.make_grouped ~name:"tableI-baselines"
      (mk Ccplace.Style.Chessboard "chessboard"
       @ mk Ccplace.Style.Rowwise "rowwise") ]

(* --- BENCH_flow.json: machine-readable flow benchmark (docs/BENCH.md) --- *)

(* shared by the file-writing artefacts; set by --out *)
let out_file : string option ref = ref None
let out_path default = Option.value ~default !out_file

let write_failed path msg =
  Printf.eprintf "bench: cannot write %s: %s\n" path msg;
  exit 1

let median_by f runs =
  let sorted = List.sort (fun a b -> Float.compare (f a) (f b)) runs in
  List.nth sorted (List.length sorted / 2)

let bench_flow_styles bits =
  [ Ccplace.Style.Rowwise; Ccplace.Style.Chessboard; Ccplace.Style.Spiral;
    Ccplace.Style.block_default ~bits ]

let bench_flow_run bits style =
  let runs = List.init 5 (fun _ -> Ccdac.Flow.run ~tech ~bits style) in
  let r = median_by (fun r -> r.Ccdac.Flow.elapsed_place_route_s) runs in
  let open Telemetry.Json in
  Obj
    [ ("style", Str (Ccplace.Style.name style));
      ("bits", Num (float_of_int bits));
      ("place_route_s", Num r.Ccdac.Flow.elapsed_place_route_s);
      ( "lvs_s",
        Num
          (Option.value ~default:0.
             (Telemetry.Summary.stage_seconds r.Ccdac.Flow.telemetry "lvs")) );
      ("f3db_mhz", Num r.Ccdac.Flow.f3db_mhz);
      ("max_inl_lsb", Num r.Ccdac.Flow.max_inl);
      ("max_dnl_lsb", Num r.Ccdac.Flow.max_dnl);
      ( "via_cuts",
        Num
          (float_of_int
             r.Ccdac.Flow.parasitics.Extract.Parasitics.total_via_cuts) ) ]

(* Null-sink overhead: place+route with telemetry idle (the default fast
   path) vs the same work inside a recording scope.  The ratio must stay
   within run-to-run noise — this is the zero-overhead-default evidence. *)
let bench_flow_overhead () =
  let bits = 8 and reps = 5 in
  let elapsed () =
    snd (Ccdac.Flow.place_route ~tech ~bits Ccplace.Style.Spiral)
  in
  let median l = List.nth (List.sort Float.compare l) (List.length l / 2) in
  let idle = median (List.init reps (fun _ -> elapsed ())) in
  let recorded =
    median
      (List.init reps (fun _ ->
           fst (Telemetry.Summary.record ~name:"bench" elapsed)))
  in
  let open Telemetry.Json in
  Obj
    [ ("bits", Num (float_of_int bits));
      ("idle_s", Num idle);
      ("recorded_s", Num recorded);
      ("ratio", Num (recorded /. idle)) ]

(* Memory probe for BENCH_flow.json: one 8-bit spiral flow with GC
   sampling on (docs/TELEMETRY.md).  Single run, not a median —
   allocation totals are near-deterministic, unlike wall clocks. *)
let bench_flow_memory () =
  let bits = 8 in
  let r =
    Telemetry.Memory.with_enabled true (fun () ->
        Ccdac.Flow.run ~tech ~bits Ccplace.Style.Spiral)
  in
  let t = r.Ccdac.Flow.telemetry in
  let open Telemetry.Json in
  match Telemetry.Summary.total_memory t with
  | None -> Null
  | Some d ->
    Obj
      [ ("style", Str "spiral");
        ("bits", Num (float_of_int bits));
        ( "stages_alloc_mb",
          Obj
            (List.map
               (fun (n, d) -> (n, Num (Telemetry.Memory.allocated_mb d)))
               (Telemetry.Summary.memory_stages t)) );
        ("alloc_mb_total", Num (Telemetry.Memory.allocated_mb d));
        ("peak_heap_mb", Num (Telemetry.Memory.peak_heap_mb d));
        ( "major_collections",
          Num (float_of_int d.Telemetry.Memory.major_collections) ) ]

(* Measured Monte-Carlo speedup at the job count this run resolves to
   (CCDAC_JOBS).  One probe per document — the value is a property of the
   machine and the pool, not of a (style, bits) cell.  At one job there
   is no parallel leg to time, so both are null. *)
let bench_par_speedup () =
  let open Telemetry.Json in
  let jobs = Par.Jobs.resolve None in
  if jobs <= 1 then (Null, Null)
  else begin
    let p = Ccdac.Parbench.mc_speedup ~tech ~jobs () in
    ( Num p.Ccdac.Parbench.speedup,
      Obj
        [ ("jobs", Num (float_of_int p.Ccdac.Parbench.jobs));
          ("trials", Num (float_of_int p.Ccdac.Parbench.trials));
          ("serial_s", Num p.Ccdac.Parbench.serial_s);
          ("parallel_s", Num p.Ccdac.Parbench.parallel_s);
          ("speedup", Num p.Ccdac.Parbench.speedup) ] )
  end

let benchflow () =
  let path = out_path "BENCH_flow.json" in
  banner path;
  let par_speedup, parallel = bench_par_speedup () in
  let runs =
    List.concat_map
      (fun bits ->
         List.map
           (fun style ->
              match bench_flow_run bits style with
              | Telemetry.Json.Obj fields ->
                Telemetry.Json.Obj
                  (fields @ [ ("par_speedup", par_speedup) ])
              | other -> other)
           (bench_flow_styles bits))
      table_bits
  in
  let doc =
    let open Telemetry.Json in
    Obj
      [ ("version", Num 1.);
        ("tech", Str tech.Tech.Process.name);
        ("repeat", Num 5.);
        ("parallel", parallel);
        ("runs", Arr runs);
        ("null_sink_overhead", bench_flow_overhead ());
        ("memory", bench_flow_memory ()) ]
  in
  (try
     let oc = open_out path in
     output_string oc (Telemetry.Json.to_string doc);
     output_char oc '\n';
     close_out oc
   with Sys_error e -> write_failed path e);
  Printf.printf "wrote %s\n" path

(* --- BENCH_baseline.json: the QoR sentinel's committed reference.
   Same (style, bits) matrix and repeat discipline as `ccgen record`'s
   defaults, so `ccgen diff --baseline BENCH_baseline.json` compares
   like against like. *)

let baseline () =
  let path = out_path "BENCH_baseline.json" in
  banner path;
  let bits_list = [ 6; 8 ] and repeat = 3 in
  (* GC sampling on, so the committed baseline carries the memory fields
     the qor/alloc_mb_total, qor/peak_heap_mb and qor/major_collections
     policies judge (records diffed without --mem skip those metrics) *)
  let records =
    Telemetry.Memory.with_enabled true @@ fun () ->
    List.concat_map
      (fun bits ->
         List.map
           (fun style ->
              let runs =
                List.init repeat (fun _ -> Ccdac.Flow.run ~tech ~bits style)
              in
              Qor.Record.of_result ~repeat
                (median_by (fun r -> r.Ccdac.Flow.elapsed_place_route_s) runs))
           (bench_flow_styles bits))
      bits_list
  in
  (try Qor.Baseline.save ~path records
   with Sys_error e -> write_failed path e);
  Printf.printf "wrote %s (%d records)\n" path (List.length records)

(* --- memscale: the ROADMAP item-2 scaling probe.  Run the full flow at
   10 and 12 bits (1k vs 4k unit cells — a 4x cell-count step) with GC
   sampling on, append both QoR records to the ledger, and report which
   stages' allocation grows faster than the cell count (docs/TELEMETRY.md
   documents the findings: those stages are the refactor targets). *)

let memscale_bits = (10, 12)

let memscale () =
  let path = out_path "qor_ledger.jsonl" in
  let lo, hi = memscale_bits in
  banner (Printf.sprintf "memscale: spiral flow at %d vs %d bits" lo hi);
  let probe bits =
    Telemetry.Memory.with_enabled true (fun () ->
        Qor.Record.of_result (Ccdac.Flow.run ~tech ~bits Ccplace.Style.Spiral))
  in
  let r_lo = probe lo and r_hi = probe hi in
  (try
     Qor.Ledger.append ~path r_lo;
     Qor.Ledger.append ~path r_hi
   with Sys_error e -> write_failed path e);
  (* cell count grows 2^(hi-lo): the super-linearity threshold *)
  let cells_ratio = float_of_int (1 lsl (hi - lo)) in
  Printf.printf "%-10s %12s %12s %8s %12s %12s %8s\n" "stage"
    (Printf.sprintf "b%d MB" lo)
    (Printf.sprintf "b%d MB" hi)
    "xMB"
    (Printf.sprintf "b%d ms" lo)
    (Printf.sprintf "b%d ms" hi)
    "xT";
  List.iter
    (fun (stage, mb_lo) ->
       let mb_hi =
         Option.value ~default:Float.nan
           (List.assoc_opt stage r_hi.Qor.Record.stage_alloc_mb)
       in
       let s_lo =
         Option.value ~default:Float.nan
           (List.assoc_opt stage r_lo.Qor.Record.stage_s)
       in
       let s_hi =
         Option.value ~default:Float.nan
           (List.assoc_opt stage r_hi.Qor.Record.stage_s)
       in
       let ratio = mb_hi /. Float.max mb_lo 1e-9 in
       Printf.printf "%-10s %12.2f %12.2f %7.1fx %12.2f %12.2f %7.1fx%s\n"
         stage mb_lo mb_hi ratio (1e3 *. s_lo) (1e3 *. s_hi)
         (s_hi /. Float.max s_lo 1e-9)
         (if ratio > cells_ratio then "  <- super-linear" else ""))
    r_lo.Qor.Record.stage_alloc_mb;
  Printf.printf
    "total: %.2f -> %.2f MB (%.1fx for a %.0fx cell count); peak heap %.2f \
     -> %.2f MB; majors %d -> %d\n"
    r_lo.Qor.Record.alloc_mb_total r_hi.Qor.Record.alloc_mb_total
    (r_hi.Qor.Record.alloc_mb_total
     /. Float.max r_lo.Qor.Record.alloc_mb_total 1e-9)
    cells_ratio r_lo.Qor.Record.peak_heap_mb r_hi.Qor.Record.peak_heap_mb
    r_lo.Qor.Record.major_collections r_hi.Qor.Record.major_collections;
  Printf.printf "appended %s and %s to %s\n" r_lo.Qor.Record.label
    r_hi.Qor.Record.label path

(* --- scaling: the cross-bit-width growth-exponent probe (Ccdac.Scaling;
   docs/BENCH.md).  Three rungs of the full flow + Monte-Carlo with
   scheduler recording on, fitted per-stage log-log exponents, and one
   QoR ledger row carrying the exponents and the pool figures.  The row
   gets a "scaling"-prefixed label so it never shadows the plain flow
   records in latest-by-label comparisons. *)

let scaling_bits = [ 8; 10; 12; 14; 16 ]

let scaling () =
  let path = out_path "qor_ledger.jsonl" in
  banner
    (Printf.sprintf "scaling: spiral flow ladder at %s bits"
       (String.concat "/" (List.map string_of_int scaling_bits)));
  let jobs = max 2 (Par.Jobs.default ()) in
  (* the flow stages read the ambient jobs default; restore the
     environment-driven resolution afterwards so later artefacts keep
     their usual (serial unless CCDAC_JOBS says otherwise) timings *)
  Par.Jobs.set_default jobs;
  let t =
    Fun.protect ~finally:Par.Jobs.clear_default @@ fun () ->
    Par.Sched.with_enabled true @@ fun () ->
    (* enough trials that the mc stage reaches the pool *)
    Ccdac.Scaling.run ~tech ~trials:Dacmodel.Montecarlo.min_parallel_trials
      ~seed:1 ~jobs scaling_bits
  in
  Format.printf "%a@." Ccdac.Scaling.pp t;
  let sched = Ccdac.Scaling.sched_totals t in
  let record =
    match List.rev t.Ccdac.Scaling.points with
    | [] -> assert false (* run rejects an empty ladder *)
    | top :: _ ->
      let r =
        Qor.Record.with_scaling
          ~stage_exponent:(Ccdac.Scaling.exponents t)
          ~sched_utilization:sched.Par.Sched.mean_utilization
          ~sched_caller_blocked_s:sched.Par.Sched.caller_blocked_s
          (Qor.Record.of_result ~jobs top.Ccdac.Scaling.p_result)
      in
      { r with Qor.Record.label = "scaling " ^ r.Qor.Record.label }
  in
  (try Qor.Ledger.append ~path record
   with Sys_error e -> write_failed path e);
  Printf.printf "appended %s (%d fitted stages, %d rungs) to %s\n"
    record.Qor.Record.label
    (List.length record.Qor.Record.stage_exponent)
    (List.length t.Ccdac.Scaling.points)
    path

let bench () =
  banner "Bechamel: constructive P&R kernels (ns/run)";
  let ols =
    Bechamel.Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Bechamel.Measure.run |]
  in
  let instances = Bechamel.Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Bechamel.Benchmark.cfg ~limit:200
      ~quota:(Bechamel.Time.second 0.25) ~kde:None ()
  in
  List.iter
    (fun test ->
       let raw = Bechamel.Benchmark.all cfg instances test in
       let results =
         Bechamel.Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock raw
       in
       let sorted =
         List.sort compare
           (Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [])
       in
       List.iter
         (fun (name, ols_result) ->
            let estimate =
              match Bechamel.Analyze.OLS.estimates ols_result with
              | Some (e :: _) -> e
              | Some [] | None -> Float.nan
            in
            Printf.printf "  %-28s %12.0f ns/run  (%6.3f ms)\n" name estimate
              (estimate /. 1e6))
         sorted)
    bechamel_tests;
  benchflow ()

(* --- figures --- *)

let show title p =
  Printf.printf "\n--- %s ---\n" title;
  print_string (Ccgrid.Render.ascii p);
  Printf.printf "legend: %s\n" (Ccgrid.Render.legend p)

let fig2 () =
  banner "Fig. 2: 6-bit placements";
  show "spiral" (Ccplace.Spiral.place ~bits:6);
  show "chessboard [7]" (Ccplace.Chessboard.place ~bits:6);
  show "block chessboard (coarser, g=4)"
    (Ccplace.Block_chess.place ~bits:6 ~core_bits:4 ~granularity:4 ());
  show "block chessboard (finer, g=1)"
    (Ccplace.Block_chess.place ~bits:6 ~core_bits:4 ~granularity:1 ())

let fig3 () =
  banner "Fig. 3: routing structure of the 6-bit spiral";
  let p = Ccplace.Spiral.place ~bits:6 in
  let layout =
    Ccroute.Layout.route tech
      ~p_of_cap:(Ccroute.Layout.msb_parallel ~bits:6 ~p:2) p
  in
  Array.iter
    (fun (net : Ccroute.Layout.capnet) ->
       Printf.printf
         "C_%d: %d group(s), %d trunk(s)%s, driver tap at x=%.2f um\n"
         net.Ccroute.Layout.cn_cap
         (List.length net.Ccroute.Layout.cn_groups)
         (List.length net.Ccroute.Layout.cn_trunks)
         (match net.Ccroute.Layout.cn_bridge_y with
          | Some _ -> " + bridge"
          | None -> "")
         net.Ccroute.Layout.cn_driver_x)
    layout.Ccroute.Layout.nets;
  let par = Extract.Parasitics.extract layout in
  Printf.printf "total: %d via cuts, %.0f um of routing\n"
    par.Extract.Parasitics.total_via_cuts
    par.Extract.Parasitics.total_wirelength

let fig4 () =
  banner "Fig. 4: 8-bit block chessboards at several granularities";
  List.iter
    (fun g ->
       show
         (Printf.sprintf "g = %d" g)
         (Ccplace.Block_chess.place ~bits:8 ~granularity:g ()))
    [ 1; 2; 4; 8 ]

let fig5 () =
  banner "Fig. 5: 8-bit routing, [7] vs spiral";
  let report name style =
    let p = Ccplace.Style.place ~bits:8 style in
    let layout = Ccroute.Layout.route tech p in
    let plan = layout.Ccroute.Layout.plan in
    let max_tracks =
      Array.fold_left Int.max 0 plan.Ccroute.Plan.tracks_per_channel
    in
    let par = Extract.Parasitics.extract layout in
    Printf.printf
      "%-14s: max %d tracks/channel, %d total tracks, L = %.0f um, C^BB = %.2f fF\n"
      name max_tracks
      (Ccroute.Plan.total_tracks plan)
      par.Extract.Parasitics.total_wirelength
      par.Extract.Parasitics.total_coupling_cap
  in
  report "chessboard [7]" Ccplace.Style.Chessboard;
  report "spiral" Ccplace.Style.Spiral

let fig6a () =
  banner "Fig. 6a: parallel-wire improvement (spiral)";
  let series =
    List.map
      (fun bits ->
         ( bits,
           Ccdac.Sweep.parallel_sweep ~tech ~bits ~style:Ccplace.Style.Spiral
             [ 1; 2; 3; 4; 5; 6 ] ))
      table_bits
  in
  print_string (Ccdac.Report.fig6a series)

let fig6b () =
  banner "Fig. 6b: f3dB of all methods normalised to spiral";
  print_string (Ccdac.Report.fig6b (Lazy.force rows))

(* --- ablations (DESIGN.md section 5) --- *)

let ablation () =
  banner "Ablations";
  (* 1. FinFET vs bulk: absolute f3dB of the chessboard *)
  let chess tech =
    (Ccdac.Flow.run ~tech ~bits:8 Ccplace.Style.Chessboard).Ccdac.Flow.f3db_mhz
  in
  Printf.printf
    "chessboard 8-bit f3dB: bulk %.0f MHz vs FinFET-class %.0f MHz\n"
    (chess Tech.Process.bulk_legacy)
    (chess Tech.Process.finfet_12nm);
  (* 2. BC core size at fixed granularity *)
  Printf.printf "\nBC core-size sweep (8-bit, g=2): core -> f3dB MHz / DNL LSB\n";
  List.iter
    (fun core_bits ->
       let r =
         Ccdac.Flow.run ~tech ~bits:8
           (Ccplace.Style.Block_chess { core_bits; granularity = 2 })
       in
       Printf.printf "  core=%d: %8.1f MHz  %.3f LSB\n" core_bits
         r.Ccdac.Flow.f3db_mhz r.Ccdac.Flow.max_dnl)
    [ 2; 4; 6; 7 ];
  (* 3. group formation mode: connected components vs straight runs *)
  Printf.printf "\ngroup mode (8-bit spiral): connected vs straight runs\n";
  let p = Ccplace.Spiral.place ~bits:8 in
  List.iter
    (fun (name, mode) ->
       let groups = Ccroute.Group.of_placement ~mode p in
       Printf.printf "  %-14s %d groups\n" name (List.length groups))
    [ ("connected", Ccroute.Group.Connected);
      ("straight-runs", Ccroute.Group.Straight_runs) ];
  (* 4. gradient angle sweep: worst-case systematic INL *)
  Printf.printf "\ngradient-angle sweep (8-bit spiral, mismatch off):\n";
  let grad_tech = { tech with Tech.Process.mismatch_coeff = 0. } in
  let theta, worst =
    Capmodel.Gradient.worst_theta ~samples:36 ~objective:(fun theta ->
        (Dacmodel.Nonlinearity.analyze grad_tech ~theta p)
          .Dacmodel.Nonlinearity.max_abs_inl)
  in
  Printf.printf "  worst theta = %.0f deg, systematic |INL| = %.2e LSB\n"
    (theta *. 180. /. Float.pi)
    worst;
  (* 5. analytical 3-sigma model vs Monte-Carlo yield integrals *)
  Printf.printf
    "\n3-sigma model vs Monte-Carlo (8-bit, 500 trials): DNL LSB\n";
  List.iter
    (fun style ->
       let r = Ccdac.Flow.run ~tech ~bits:8 style in
       let mc =
         Dacmodel.Montecarlo.run tech ~trials:500
           ~top_parasitic:r.Ccdac.Flow.parasitics.Extract.Parasitics.total_top_cap
           r.Ccdac.Flow.placement
       in
       Printf.printf "  %-12s 3sigma %.3f | MC mean %.3f p95 %.3f max %.3f\n"
         (Ccplace.Style.label style) r.Ccdac.Flow.max_dnl
         mc.Dacmodel.Montecarlo.mean_dnl mc.Dacmodel.Montecarlo.p95_dnl
         mc.Dacmodel.Montecarlo.max_dnl)
    [ Ccplace.Style.Spiral; Ccplace.Style.Chessboard ];
  (* 6. daisy-chain router: recovering the paper's prior-work magnitudes *)
  Printf.printf
    "\nchained routing ([7]-era serial structure) vs the paper's trunk router:\n";
  List.iter
    (fun bits ->
       let chess = Ccplace.Chessboard.place ~bits in
       let chain = Ccroute.Chain.analyze tech chess in
       let trunk = Ccdac.Flow.run ~tech ~bits Ccplace.Style.Chessboard in
       let spiral = Ccdac.Flow.run ~tech ~bits Ccplace.Style.Spiral in
       Printf.printf
         "  %2d-bit [7]: chained %8.1f MHz | trunk-routed %8.1f MHz | S/chained = %.0fx\n"
         bits
         (Ccroute.Chain.f3db_mhz chain ~bits)
         trunk.Ccdac.Flow.f3db_mhz
         (spiral.Ccdac.Flow.f3db_mhz /. Ccroute.Chain.f3db_mhz chain ~bits))
    [ 6; 8; 10 ];
  (* 7. curvature: CC symmetry cancels linear gradients, not bowls *)
  Printf.printf
    "\nquadratic (bowl) profile, mismatch off: systematic |INL| in LSB\n";
  let no_random = { tech with Tech.Process.mismatch_coeff = 0. } in
  let bowl =
    Capmodel.Profile.quadratic ~ppm_per_um2:200. ~center:Geom.Point.origin
  in
  List.iter
    (fun style ->
       let p = Ccplace.Style.place ~bits:8 style in
       let linear = (Dacmodel.Nonlinearity.analyze no_random p).Dacmodel.Nonlinearity.max_abs_inl in
       let curved =
         (Dacmodel.Nonlinearity.analyze no_random ~profile:bowl p)
           .Dacmodel.Nonlinearity.max_abs_inl
       in
       Printf.printf "  %-5s linear %.2e | bowl %.4f\n"
         (Ccplace.Style.label style) linear curved)
    [ Ccplace.Style.Spiral; Ccplace.Style.Chessboard ];
  (* 8. Elmore vs backward-Euler transient on the spiral MSB net *)
  Printf.printf "\nElmore vs transient settling (6-bit spiral MSB):\n";
  let p6 = Ccplace.Spiral.place ~bits:6 in
  let layout6 = Ccroute.Layout.route tech p6 in
  let net = Extract.Netbuild.build layout6 ~cap:6 in
  let elmore = Extract.Netbuild.worst_elmore_fs net in
  let tolerance = 1. /. float_of_int (4 * (1 lsl 6)) in
  let transient =
    Rcnet.Transient.slowest_settling_fs net.Extract.Netbuild.tree
      ~root:net.Extract.Netbuild.root ~vstep:1. ~tolerance
      ~over:(Array.to_list net.Extract.Netbuild.cell_nodes)
  in
  Printf.printf
    "  Eq. 15 from Elmore: %.0f fs; backward-Euler to 1/4 LSB: %.0f fs (ratio %.2f)\n"
    (Dacmodel.Speed.settling_time_fs ~bits:6 ~tau_fs:elmore)
    transient
    (transient /. Dacmodel.Speed.settling_time_fs ~bits:6 ~tau_fs:elmore)

let csv () =
  banner "CSV export";
  Ccdac.Csv.write ~path:"results.csv" (Ccdac.Csv.metrics_rows (Lazy.force rows));
  let series =
    List.map
      (fun bits ->
         ( bits,
           Ccdac.Sweep.parallel_sweep ~tech ~bits ~style:Ccplace.Style.Spiral
             [ 1; 2; 3; 4; 5; 6 ] ))
      table_bits
  in
  Ccdac.Csv.write ~path:"fig6a.csv" (Ccdac.Csv.parallel_sweep_csv series);
  print_endline "wrote results.csv and fig6a.csv"

let artefacts =
  [ ("table1", table1); ("table2", table2); ("table3", table3);
    ("fig2", fig2); ("fig3", fig3); ("fig4", fig4); ("fig5", fig5);
    ("fig6a", fig6a); ("fig6b", fig6b); ("ablation", ablation);
    ("bench", bench); ("benchflow", benchflow); ("baseline", baseline);
    ("memscale", memscale); ("scaling", scaling); ("csv", csv) ]

let out_writers = [ "benchflow"; "baseline"; "memscale"; "scaling" ]

let () =
  let rec parse names = function
    | [] -> List.rev names
    | [ "--out" ] ->
      Printf.eprintf "bench: --out needs a FILE argument\n";
      exit 2
    | "--out" :: path :: rest ->
      if !out_file <> None then begin
        Printf.eprintf "bench: --out given twice\n";
        exit 2
      end;
      out_file := Some path;
      parse names rest
    | name :: rest -> parse (name :: names) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst artefacts
    | names -> names
  in
  if !out_file <> None then begin
    let writers = List.filter (fun n -> List.mem n out_writers) requested in
    match writers with
    | [ _ ] -> ()
    | _ ->
      Printf.eprintf
        "bench: --out needs exactly one file-writing artefact (%s); %d \
         requested\n"
        (String.concat " or " out_writers)
        (List.length writers);
      exit 2
  end;
  List.iter
    (fun name ->
       match List.assoc_opt name artefacts with
       | Some f -> f ()
       | None ->
         Printf.eprintf "unknown artefact %S; available: %s\n" name
           (String.concat " " (List.map fst artefacts));
         exit 2)
    requested
