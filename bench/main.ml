(* Benchmark and reproduction harness.

   Regenerates every table and figure of the paper:

     dune exec bench/main.exe              all tables, figures, benchmarks
     dune exec bench/main.exe -- table1    one artefact
       (table1 table2 table3 fig2 fig3 fig4 fig5 fig6a fig6b ablation
        benchflow baseline csv)

   The file-writing artefacts (benchflow, baseline) take --out FILE to
   redirect their output; exactly one of them must be requested when
   --out is given.

   Table III is the place+route wall clock inside the flow (like the
   paper): the median of 5 runs per (style, bits), the same runs
   BENCH_flow.json records. *)

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

(* --- the median-of-5 flow runs: BENCH_flow.json's records and Table
   III's times --- *)

let bench_flow_styles bits =
  [ Ccplace.Style.Rowwise; Ccplace.Style.Chessboard; Ccplace.Style.Spiral;
    Ccplace.Style.block_default ~bits ]

let flow_repeat = 5

let flow_records =
  lazy
    (List.concat_map
       (fun bits ->
          List.map
            (fun style ->
               Qor.Record.of_result ~repeat:flow_repeat
                 (Ccdac.Flow.median_run ~tech ~repeat:flow_repeat ~bits style))
            (bench_flow_styles bits))
       table_bits)

(* --- Table III: wall-clock runtimes --- *)

let table3 () =
  banner "Table III (wall clock)";
  let place_route_s bits style =
    let label = Qor.Record.label ~style:(Ccplace.Style.name style) ~bits in
    (List.find
       (fun (r : Qor.Record.t) -> r.Qor.Record.label = label)
       (Lazy.force flow_records))
      .Qor.Record.place_route_s
  in
  print_string
    (Ccdac.Report.table3
       (List.map
          (fun bits ->
             ( bits,
               place_route_s bits Ccplace.Style.Spiral,
               place_route_s bits (Ccplace.Style.block_default ~bits) ))
          table_bits))

(* --- BENCH_flow.json: machine-readable flow benchmark (docs/BENCH.md) --- *)

(* shared by the file-writing artefacts; set by --out *)
let out_file : string option ref = ref None
let out_path default = Option.value ~default !out_file

let write_failed path msg =
  Printf.eprintf "bench: cannot write %s: %s\n" path msg;
  exit 1

(* Null-sink overhead: place+route with telemetry idle (the default fast
   path) vs the same work inside a recording scope.  After one untimed
   run, idle and recorded runs alternate in pairs, the one going first
   swapping from pair to pair, so warm-up favours neither median.  The
   ratio must stay within run-to-run noise — this is the
   zero-overhead-default evidence. *)
let bench_flow_overhead () =
  let bits = 8 and reps = 5 in
  let elapsed () =
    snd (Ccdac.Flow.place_route ~tech ~bits Ccplace.Style.Spiral)
  in
  let recorded () = fst (Telemetry.Summary.record ~name:"bench" elapsed) in
  ignore (elapsed () : float);
  let idle = Array.make reps 0. and record = Array.make reps 0. in
  for i = 0 to reps - 1 do
    if i mod 2 = 0 then begin
      idle.(i) <- elapsed ();
      record.(i) <- recorded ()
    end
    else begin
      record.(i) <- recorded ();
      idle.(i) <- elapsed ()
    end
  done;
  let median a =
    let a = Array.copy a in
    Array.sort Float.compare a;
    a.(reps / 2)
  in
  let idle = median idle and recorded = median record in
  let open Telemetry.Json in
  Obj
    [ ("bits", Num (float_of_int bits));
      ("idle_s", Num idle);
      ("recorded_s", Num recorded);
      ("ratio", Num (recorded /. idle)) ]

(* Memory probe for BENCH_flow.json: the record of one 8-bit spiral flow
   with GC sampling on (docs/TELEMETRY.md).  Single run, not a median —
   allocation totals repeat exactly, unlike wall clocks. *)
let bench_flow_memory () =
  Qor.Record.to_json
    (Qor.Record.of_result
       (Telemetry.Memory.with_enabled true (fun () ->
            Ccdac.Flow.run ~tech ~bits:8 Ccplace.Style.Spiral)))

let benchflow () =
  let path = out_path "BENCH_flow.json" in
  banner path;
  (* the runs first: the overhead probe below times warm place+route *)
  let runs = List.map Qor.Record.to_json (Lazy.force flow_records) in
  let doc =
    let open Telemetry.Json in
    Obj
      [ ("version", Num 2.);
        ("tech", Str tech.Tech.Process.name);
        ("repeat", Num (float_of_int flow_repeat));
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
              Qor.Record.of_result ~repeat
                (Ccdac.Flow.median_run ~tech ~repeat ~bits style))
           (bench_flow_styles bits))
      bits_list
  in
  (try Qor.Baseline.save ~path records
   with Sys_error e -> write_failed path e);
  Printf.printf "wrote %s (%d records)\n" path (List.length records)

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
         (Array.length net.Ccroute.Layout.cn_groups)
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
       Printf.printf "  %-14s %d groups\n" name (Ccroute.Group.count groups))
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
    ("benchflow", benchflow); ("baseline", baseline);
    ("csv", csv) ]

let out_writers = [ "benchflow"; "baseline" ]

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
