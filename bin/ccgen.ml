(* ccgen: command-line front end for the constructive common-centroid
   capacitor-array layout flow.

     ccgen place   -b 8 -s spiral          render a placement
     ccgen run     -b 8 -s bc -g 4         full flow + metric summary
     ccgen compare -b 8                    the four methods side by side
     ccgen tables                          regenerate the paper's tables
     ccgen sweep   -b 8                    parallel-wire sweep (Fig. 6a)
     ccgen profile -b 6,8 --json           per-stage time/metric breakdown
     ccgen scale   -b 6,8,10,12 -j 4       cross-bit-width scaling probe
     ccgen lvs     --all --werror          sweepline connectivity certification
     ccgen record  -b 6,8                  append QoR records to the ledger
     ccgen diff    --baseline FILE         ledger's latest records vs baseline
     ccgen history --ledger FILE           QoR trend from the ledger
     ccgen explain -b 8 -s spiral          per-element delay/INL attribution
     ccgen version                         release + git/host provenance

   Only the subcommands whose work reaches Par.Pool take --jobs: compare,
   tables, mc, scale and sweep.  The flow itself (run, profile, record,
   explain) has no parallel section.
*)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  let doc = "Print debug logs (place+route time, diagnostic counts)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let jobs_arg =
  let doc =
    Printf.sprintf
      "Worker domains for the parallel sections (Monte-Carlo runs of %d \
       trials or more, sweep rows); 0 = one per core.  Overrides the \
       $(b,CCDAC_JOBS) environment variable; default 1 (serial).  Results \
       are bitwise-identical at every value (docs/PARALLEL.md)."
      Dacmodel.Montecarlo.min_parallel_trials
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

(* [--jobs] sets the process-wide default that every [?jobs]-taking entry
   point resolves against, so one flag reaches all parallel sections. *)
let apply_jobs = function
  | None -> ()
  | Some n when n < 0 ->
    Printf.eprintf "ccgen: --jobs must be >= 0\n";
    exit 2
  | Some n -> Par.Jobs.set_default n

let style_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "spiral" | "s" -> Ok `Spiral
    | "chessboard" | "chess" | "7" -> Ok `Chessboard
    | "rowwise" | "baseline" | "1" -> Ok `Rowwise
    | "bc" | "block" | "block-chessboard" -> Ok `Block
    | other -> Error (`Msg (Printf.sprintf "unknown style %S" other))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (match s with
       | `Spiral -> "spiral"
       | `Chessboard -> "chessboard"
       | `Rowwise -> "rowwise"
       | `Block -> "bc")
  in
  Arg.conv (parse, print)

let resolve_style ~bits ~granularity = function
  | `Spiral -> Ccplace.Style.Spiral
  | `Chessboard -> Ccplace.Style.Chessboard
  | `Rowwise -> Ccplace.Style.Rowwise
  | `Block ->
    Ccplace.Style.Block_chess
      { core_bits = Ccplace.Block_chess.default_core_bits ~bits; granularity }

let bits_arg =
  let doc = "DAC resolution N in bits (the array holds 2^N unit capacitors)." in
  Arg.(value & opt int 8 & info [ "b"; "bits" ] ~docv:"N" ~doc)

let style_arg =
  let doc = "Placement style: spiral, chessboard ([7]), rowwise ([1] proxy), bc." in
  Arg.(value & opt style_conv `Spiral & info [ "s"; "style" ] ~docv:"STYLE" ~doc)

let gran_arg =
  let doc = "Block-chessboard granularity (cells per block side)." in
  Arg.(value & opt int 2 & info [ "g"; "granularity" ] ~docv:"G" ~doc)

let tech_arg =
  let doc = "Technology preset: finfet (default) or bulk." in
  let tech_conv =
    Arg.conv
      ( (fun s ->
           match String.lowercase_ascii s with
           | "finfet" | "finfet-12nm" -> Ok Tech.Process.finfet_12nm
           | "bulk" | "legacy" -> Ok Tech.Process.bulk_legacy
           | _ when Sys.file_exists s -> begin
               match Tech.Techfile.load ~path:s with
               | Ok tech -> Ok tech
               | Error msg ->
                 Error (`Msg (Printf.sprintf "tech file %s: %s" s msg))
             end
           | other ->
             Error
               (`Msg
                  (Printf.sprintf
                     "unknown tech %S (use finfet, bulk, or a tech file path)"
                     other)) ),
        fun ppf t -> Format.pp_print_string ppf t.Tech.Process.name )
  in
  Arg.(value & opt tech_conv Tech.Process.finfet_12nm
       & info [ "t"; "tech" ] ~docv:"TECH" ~doc)

let check_bits bits =
  if bits < 2 || bits > Ccgrid.Weights.max_bits then begin
    Printf.eprintf "ccgen: bits must be in [2, %d]\n" Ccgrid.Weights.max_bits;
    exit 2
  end

let check_trials trials =
  if trials < 1 then begin
    Printf.eprintf "ccgen: --trials must be >= 1\n";
    exit 2
  end

(* --- telemetry surface (shared by run and profile) --- *)

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON trace of the run to $(docv) \
     (load it in chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Dump the metrics registry after the run: $(b,text) or $(b,json)." in
  Arg.(value & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
       & info [ "metrics" ] ~docv:"FMT" ~doc)

(* Run [f] with a Chrome-trace sink installed when requested. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    let r = Telemetry.Sink.with_ (Telemetry.Sink.chrome_trace ~path) f in
    Printf.eprintf "ccgen: wrote trace to %s\n" path;
    r

let print_metrics fmt (dump : Telemetry.Metrics.dump) =
  match fmt with
  | None -> ()
  | Some `Text -> print_string (Telemetry.Metrics.to_text dump)
  | Some `Json ->
    print_endline (Telemetry.Json.to_string (Telemetry.Metrics.to_json dump))

(* --- place --- *)

let place_cmd =
  let save_arg =
    let doc = "Also save the placement to this file (ccdac-placement v1)." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let run bits style granularity save =
    check_bits bits;
    let style = resolve_style ~bits ~granularity style in
    let p = Ccplace.Style.place ~bits style in
    Printf.printf "%s, %d-bit, %dx%d array\n\n" (Ccplace.Style.name style) bits
      p.Ccgrid.Placement.rows p.Ccgrid.Placement.cols;
    print_string (Ccgrid.Render.ascii p);
    Printf.printf "\nlegend: %s\n" (Ccgrid.Render.legend p);
    match save with
    | None -> ()
    | Some path ->
      Ccgrid.Serial.save p ~path;
      Printf.printf "saved to %s\n" path
  in
  let doc = "Build a placement and render it as ASCII art." in
  Cmd.v (Cmd.info "place" ~doc)
    Term.(const run $ bits_arg $ style_arg $ gran_arg $ save_arg)

(* --- run --- *)

let load_arg =
  let doc = "Analyse a saved placement file instead of placing." in
  Arg.(value & opt (some string) None & info [ "load" ] ~docv:"FILE" ~doc)

let run_cmd =
  let run bits style granularity tech verbose load trace metrics_fmt =
    setup_logs verbose;
    check_bits bits;
    let style = resolve_style ~bits ~granularity style in
    let r =
      with_trace trace @@ fun () ->
      match load with
      | Some path -> begin
          match Ccgrid.Serial.load ~path with
          | Error msg ->
            Printf.eprintf "ccgen: %s: %s\n" path msg;
            exit 1
          | Ok placement -> Ccdac.Flow.run_placement ~tech placement
        end
      | None -> Ccdac.Flow.run ~tech ~bits style
    in
    print_string (Ccdac.Report.summary r);
    print_metrics metrics_fmt
      r.Ccdac.Flow.telemetry.Telemetry.Summary.metrics
  in
  let doc = "Run the full flow (place, route, extract, analyse) and report." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ bits_arg $ style_arg $ gran_arg $ tech_arg $ verbose_arg
          $ load_arg $ trace_arg $ metrics_arg)

(* --- compare --- *)

let compare_cmd =
  let run bits tech jobs =
    apply_jobs jobs;
    check_bits bits;
    let rows = [ (bits, Ccdac.Sweep.row ~tech ~bits ()) ] in
    print_string (Ccdac.Report.table1 rows);
    print_newline ();
    print_string (Ccdac.Report.table2 rows)
  in
  let doc = "Compare the four methods ([1], [7], S, best BC) at one resolution." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ bits_arg $ tech_arg $ jobs_arg)

(* --- tables --- *)

let tables_cmd =
  let run tech jobs =
    apply_jobs jobs;
    let rows =
      List.map (fun bits -> (bits, Ccdac.Sweep.row ~tech ~bits ())) [ 6; 7; 8; 9; 10 ]
    in
    print_string (Ccdac.Report.table1 rows);
    print_newline ();
    print_string (Ccdac.Report.table2 rows);
    print_newline ();
    (* Table III: place+route of the median of 5 flow runs, as
       BENCH_flow.json commits it *)
    let place_route_s bits style =
      (Ccdac.Flow.median_run ~tech ~repeat:5 ~bits style)
        .Ccdac.Flow.elapsed_place_route_s
    in
    let runtimes =
      List.map
        (fun bits ->
           ( bits,
             place_route_s bits Ccplace.Style.Spiral,
             place_route_s bits (Ccplace.Style.block_default ~bits) ))
        [ 6; 7; 8; 9; 10 ]
    in
    print_string (Ccdac.Report.table3 runtimes);
    print_newline ();
    print_string (Ccdac.Report.fig6b rows)
  in
  let doc = "Regenerate the paper's Tables I-III and Fig. 6b." in
  Cmd.v (Cmd.info "tables" ~doc) Term.(const run $ tech_arg $ jobs_arg)

(* --- svg --- *)

let svg_cmd =
  let out_arg =
    let doc = "Output SVG file path." in
    Arg.(value & opt string "layout.svg" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run bits style granularity tech path =
    check_bits bits;
    let style = resolve_style ~bits ~granularity style in
    let p = Ccplace.Style.place ~bits style in
    let layout =
      Ccroute.Layout.route tech
        ~p_of_cap:(Ccdac.Flow.default_parallel ~bits style) p
    in
    Verify.Engine.assert_clean
      ~what:(Printf.sprintf "%s %d-bit" (Ccplace.Style.name style) bits)
      (Verify.Engine.check_layout layout);
    Ccroute.Svg.write layout ~path;
    Printf.printf "wrote %s (%.0f x %.0f um, %d wires)\n" path
      layout.Ccroute.Layout.width layout.Ccroute.Layout.height
      (Ccroute.Layout.Wires.length layout.Ccroute.Layout.wires)
  in
  let doc = "Route a placement and render it to SVG (cf. the paper's Fig. 5)." in
  Cmd.v (Cmd.info "svg" ~doc)
    Term.(const run $ bits_arg $ style_arg $ gran_arg $ tech_arg $ out_arg)

(* --- mc --- *)

let mc_cmd =
  let trials_arg =
    let doc = "Number of Monte-Carlo trials." in
    Arg.(value & opt int 500 & info [ "n"; "trials" ] ~docv:"N" ~doc)
  in
  let run bits style granularity tech trials jobs =
    apply_jobs jobs;
    check_bits bits;
    check_trials trials;
    let style = resolve_style ~bits ~granularity style in
    let r = Ccdac.Flow.run ~tech ~bits style in
    let mc =
      Dacmodel.Montecarlo.run tech ~trials ~cov:r.Ccdac.Flow.covariance
        ~top_parasitic:r.Ccdac.Flow.parasitics.Extract.Parasitics.total_top_cap
        r.Ccdac.Flow.placement
    in
    Printf.printf
      "%s %d-bit, %d trials\n\
      \  analytic 3-sigma : INL %.3f / DNL %.3f LSB\n\
      \  Monte-Carlo mean : INL %.3f / DNL %.3f LSB\n\
      \  Monte-Carlo p95  : INL %.3f / DNL %.3f LSB\n\
      \  Monte-Carlo max  : INL %.3f / DNL %.3f LSB\n\
      \  yield (0.5 LSB)  : %.1f%%\n"
      (Ccplace.Style.name style) bits trials r.Ccdac.Flow.max_inl
      r.Ccdac.Flow.max_dnl mc.Dacmodel.Montecarlo.mean_inl
      mc.Dacmodel.Montecarlo.mean_dnl mc.Dacmodel.Montecarlo.p95_inl
      mc.Dacmodel.Montecarlo.p95_dnl mc.Dacmodel.Montecarlo.max_inl
      mc.Dacmodel.Montecarlo.max_dnl
      (100. *. mc.Dacmodel.Montecarlo.yield)
  in
  let doc = "Monte-Carlo linearity analysis (the numerical-yield alternative)." in
  Cmd.v (Cmd.info "mc" ~doc)
    Term.(const run $ bits_arg $ style_arg $ gran_arg $ tech_arg $ trials_arg
          $ jobs_arg)

(* --- lint and lvs: one labelled run per configuration --- *)

let report_json_arg =
  let doc = "Emit machine-readable JSON instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let report_werror_arg =
  let doc = "Treat warnings as errors (nonzero exit on any finding)." in
  Arg.(value & flag & info [ "werror" ] ~doc)

(* The report of [ccgen lint] and [ccgen lvs]: one "label: summary" line
   per run, each finding indented below it, and a count line over
   several runs; with [json], one object per run ([to_json label run])
   inside a [runs] array.  [clean_note] follows a clean run's "clean".
   Exits 1 when any run fails the gate. *)
let print_runs ~json ~werror ~diagnostics ~clean_note ~to_json runs =
  if json then
    print_endline
      (Printf.sprintf "{\"version\": 1, \"runs\": [%s]}"
         (String.concat ", "
            (List.map (fun (label, run) -> to_json label run) runs)))
  else begin
    List.iter
      (fun (label, run) ->
         match diagnostics run with
         | [] -> Printf.printf "%s: clean%s\n" label (clean_note run)
         | diags ->
           Printf.printf "%s: %s\n" label (Verify.Report.summary_line diags);
           List.iter
             (fun d -> Printf.printf "  %s\n" (Format.asprintf "%a" Diag.pp d))
             (Diag.sort diags))
      runs;
    let clean = List.filter (fun (_, run) -> diagnostics run = []) runs in
    if List.length runs > 1 then
      Printf.printf "%d configuration(s), %d clean\n" (List.length runs)
        (List.length clean)
  end;
  if List.exists (fun (_, run) -> Diag.fails ~werror (diagnostics run)) runs
  then exit 1

let lint_cmd =
  let all_arg =
    let doc =
      "Lint every shipped configuration: the four placement styles \
       (spiral, chessboard, rowwise, and the full block-chessboard family) \
       at 4 to 10 bits."
    in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let rules_arg =
    let doc = "Print the rule catalogue (with $(b,--json): as JSON) and exit." in
    Arg.(value & flag & info [ "rules" ] ~doc)
  in
  let load_lint_arg =
    let doc = "Lint a saved placement file instead of placing a style." in
    Arg.(value & opt (some string) None & info [ "load" ] ~docv:"FILE" ~doc)
  in
  let print_rules json =
    if json then print_endline (Verify.Report.json_rules ())
    else
      List.iter
        (fun (r : Diag.rule) ->
           Printf.printf "%-34s %-9s %-7s %s\n" r.Diag.id
             (Verify.Report.category r)
             (Diag.severity_name r.Diag.severity)
             r.Diag.doc)
        Verify.Registry.all.Diag.rules
  in
  (* one linted configuration: label + diagnostics *)
  let lint_style tech bits style =
    let parallel = Ccdac.Flow.default_parallel ~bits style in
    let label = Printf.sprintf "%s %d-bit" (Ccplace.Style.name style) bits in
    (label, Verify.Engine.lint ~parallel ~tech ~bits style)
  in
  let run bits style granularity tech json werror all rules load =
    if rules then print_rules json
    else begin
      let runs =
        match load with
        | Some path -> begin
            match Ccgrid.Serial.load ~path with
            | Error msg ->
              Printf.eprintf "ccgen: %s: %s\n" path msg;
              exit 2
            | Ok placement ->
              [ (path, Verify.Engine.lint_placement ~tech placement) ]
          end
        | None when all ->
          List.concat_map
            (fun bits ->
               List.map (lint_style tech bits)
                 (Ccplace.Style.Spiral :: Ccplace.Style.Chessboard
                  :: Ccplace.Style.Rowwise
                  :: Ccplace.Style.block_family ~bits))
            [ 4; 5; 6; 7; 8; 9; 10 ]
        | None ->
          check_bits bits;
          [ lint_style tech bits (resolve_style ~bits ~granularity style) ]
      in
      print_runs ~json ~werror ~diagnostics:Fun.id
        ~clean_note:(fun _ -> "")
        ~to_json:(fun label diags -> Verify.Report.json ~label diags)
        runs
    end
  in
  let doc =
    "Run the rule-registry linter over tech, style, placement and routed \
     layout; nonzero exit on any error-severity diagnostic."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const run $ bits_arg $ style_arg $ gran_arg $ tech_arg
          $ report_json_arg $ report_werror_arg $ all_arg $ rules_arg
          $ load_lint_arg)

let lvs_cmd =
  let all_arg =
    let doc =
      "Certify every shipped configuration: spiral, chessboard, rowwise and \
       the default block-chessboard at 4, 6, 8, 10 and 12 bits."
    in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  (* one certified configuration: label + extraction stats + diagnostics *)
  let lvs_style tech granularity bits s =
    let style = resolve_style ~bits ~granularity s in
    let p = Ccplace.Style.place ~bits style in
    let layout =
      Ccroute.Layout.route tech
        ~p_of_cap:(Ccdac.Flow.default_parallel ~bits style) p
    in
    let label = Printf.sprintf "%s %d-bit" (Ccplace.Style.name style) bits in
    (label, Lvs.Check.run layout)
  in
  let run bits style granularity tech json werror all =
    let runs =
      if all then
        List.concat_map
          (fun bits ->
             List.map
               (lvs_style tech granularity bits)
               [ `Spiral; `Chessboard; `Rowwise; `Block ])
          [ 4; 6; 8; 10; 12 ]
      else begin
        check_bits bits;
        [ lvs_style tech granularity bits style ]
      end
    in
    print_runs ~json ~werror
      ~diagnostics:(fun (r : Lvs.Check.result) -> r.Lvs.Check.diagnostics)
      ~clean_note:(fun (r : Lvs.Check.result) ->
          let s = r.Lvs.Check.stats in
          Printf.sprintf " (%d shapes, %d contacts, %d components)"
            s.Lvs.Check.shapes s.Lvs.Check.contacts s.Lvs.Check.components)
      ~to_json:(fun label (r : Lvs.Check.result) ->
          let s = r.Lvs.Check.stats in
          Printf.sprintf
            "{\"label\": \"%s\", \"stats\": {\"shapes\": %d, \
             \"contacts\": %d, \"components\": %d}, \"report\": %s}"
            label s.Lvs.Check.shapes s.Lvs.Check.contacts
            s.Lvs.Check.components
            (Verify.Report.json r.Lvs.Check.diagnostics))
      runs
  in
  let doc =
    "Extract whole-layout connectivity with the sweepline engine and certify \
     it against the intended netlist (opens, shorts, floating cells, \
     Netbuild cross-check); nonzero exit on any lvs/* error."
  in
  Cmd.v (Cmd.info "lvs" ~doc)
    Term.(const run $ bits_arg $ style_arg $ gran_arg $ tech_arg
          $ report_json_arg $ report_werror_arg $ all_arg)

(* --- the measured (style, bits) matrix shared by profile and record --- *)

let matrix_bits_arg =
  let doc = "Comma-separated resolutions to run." in
  Arg.(value & opt (list int) [ 6; 8 ] & info [ "b"; "bits" ] ~docv:"N,.." ~doc)

let matrix_styles_arg =
  let doc = "Comma-separated styles (default: all four)." in
  Arg.(value & opt (list style_conv) [ `Rowwise; `Chessboard; `Spiral; `Block ]
       & info [ "s"; "styles" ] ~docv:"STYLE,.." ~doc)

let repeat_arg =
  let doc =
    "Runs per configuration; the one reported is the run with the median \
     place+route time."
  in
  Arg.(value & opt int 3 & info [ "repeat" ] ~docv:"R" ~doc)

let check_repeat repeat =
  if repeat < 1 then begin
    Printf.eprintf "ccgen: --repeat must be >= 1\n";
    exit 2
  end

(* One QoR record per (style, bits): the median-of-[repeat] flow run. *)
let record_matrix ~tech ~granularity ~repeat bits_list styles =
  List.concat_map
    (fun bits ->
       List.map
         (fun s ->
            let style = resolve_style ~bits ~granularity s in
            Qor.Record.of_result ~repeat
              (Ccdac.Flow.median_run ~tech ~repeat ~bits style))
         styles)
    bits_list

(* --- profile --- *)

let profile_cmd =
  let json_arg =
    let doc = "Emit the machine-readable profile document (docs/BENCH.md)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let mem_arg =
    let doc =
      "Sample GC statistics around every stage (docs/TELEMETRY.md): per-stage \
       allocated MB, peak heap MB and major collections, in the table and in \
       the memory fields of the JSON document's per-run records."
    in
    Arg.(value & flag & info [ "mem" ] ~doc)
  in
  (* a stage of a record's table; 0 for a stage that did not run *)
  let stage table name = Option.value ~default:0. (List.assoc_opt name table) in
  let run bits_list styles granularity tech repeat json mem verbose trace
      metrics_fmt =
    setup_logs verbose;
    check_repeat repeat;
    List.iter check_bits bits_list;
    let records, dump =
      Telemetry.Memory.with_enabled mem @@ fun () ->
      Telemetry.Metrics.collect @@ fun () ->
      with_trace trace @@ fun () ->
      Telemetry.Span.with_ ~name:"profile" @@ fun () ->
      record_matrix ~tech ~granularity ~repeat bits_list styles
    in
    if json then begin
      let open Telemetry.Json in
      print_endline
        (to_string
           (Obj
              [ ("version", Num 2.);
                ("tech", Str tech.Tech.Process.name);
                ("repeat", Num (float_of_int repeat));
                ("runs", Arr (List.map Qor.Record.to_json records));
                ("metrics", Telemetry.Metrics.to_json dump) ]))
    end
    else begin
      Printf.printf
        "%-18s %4s  %9s %9s %9s %9s %9s %9s  %8s %6s %9s\n" "style" "bits"
        "place ms" "route ms" "verify ms" "lvs ms" "extract ms" "analyse ms"
        "p+r ms" "vias" "f3dB MHz";
      List.iter
        (fun (r : Qor.Record.t) ->
           let ms n = 1e3 *. stage r.stage_s n in
           Printf.printf
             "%-18s %4d  %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f  %8.2f %6d %9.0f\n"
             r.style r.bits (ms "place") (ms "route") (ms "verify") (ms "lvs")
             (ms "extract") (ms "analyse") (1e3 *. r.place_route_s)
             r.via_cuts r.f3db_mhz)
        records;
      Printf.printf "(%d run(s) per configuration; median by place+route)\n"
        repeat;
      if mem then begin
        Printf.printf "\nmemory (allocated MB per stage; median runs):\n";
        Printf.printf
          "%-18s %4s  %9s %9s %9s %9s %9s %9s  %9s %8s %6s\n" "style" "bits"
          "place" "route" "verify" "lvs" "extract" "analyse" "total MB"
          "peak MB" "majors";
        List.iter
          (fun (r : Qor.Record.t) ->
             let mb = stage r.stage_alloc_mb in
             Printf.printf
               "%-18s %4d  %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f  %9.2f %8.2f \
                %6d\n"
               r.style r.bits (mb "place") (mb "route") (mb "verify")
               (mb "lvs") (mb "extract") (mb "analyse") r.alloc_mb_total
               r.peak_heap_mb r.major_collections)
          records
      end;
      let dists =
        List.filter
          (fun (p : Telemetry.Metrics.point) ->
             match p.Telemetry.Metrics.value with
             | Telemetry.Metrics.Dist _ -> true
             | Telemetry.Metrics.Count _ | Telemetry.Metrics.Value _ -> false)
          (Telemetry.Metrics.points dump)
      in
      if dists <> [] then begin
        Printf.printf "histograms:\n";
        List.iter
          (fun (p : Telemetry.Metrics.point) ->
             let q x =
               match Telemetry.Metrics.quantile p.Telemetry.Metrics.value x with
               | Some v -> Printf.sprintf "%g" v
               | None -> "-"
             in
             Printf.printf "  %-28s p50=%s p95=%s p99=%s\n"
               p.Telemetry.Metrics.metric.Telemetry.Metric.id (q 0.5) (q 0.95)
               (q 0.99))
          dists
      end;
      print_metrics metrics_fmt dump
    end
  in
  let doc =
    "Profile the flow over a (style, bits) matrix: per-stage wall time and \
     layout metrics, with optional GC sampling ($(b,--mem)), Chrome trace \
     and metrics dump.  The flow runs serially: it has no parallel \
     section."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ matrix_bits_arg $ matrix_styles_arg $ gran_arg $ tech_arg
          $ repeat_arg $ json_arg $ mem_arg $ verbose_arg $ trace_arg
          $ metrics_arg)

(* --- scale: cross-bit-width scaling probe --- *)

let scale_cmd =
  let bits_list_arg =
    let doc =
      Printf.sprintf
        "Comma-separated bit-width ladder to probe (each in [2, %d]); the \
         growth exponents are fitted across these rungs."
        Ccgrid.Weights.max_bits
    in
    Arg.(value & opt (list int) [ 6; 8; 10; 12 ]
         & info [ "b"; "bits" ] ~docv:"N,.." ~doc)
  in
  let trials_arg =
    let doc = "Monte-Carlo trials for the mc stage of each rung." in
    Arg.(value & opt int 100 & info [ "trials" ] ~docv:"T" ~doc)
  in
  let seed_arg =
    let doc = "Monte-Carlo seed (fixed so ladders are reproducible)." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc)
  in
  let json_arg =
    let doc = "Emit the machine-readable scaling report (docs/BENCH.md)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run bits_list style granularity tech trials seed json verbose trace jobs
      =
    setup_logs verbose;
    apply_jobs jobs;
    List.iter check_bits bits_list;
    check_trials trials;
    let style_of_bits bits = resolve_style ~bits ~granularity style in
    let t =
      Par.Sched.with_enabled true @@ fun () ->
      with_trace trace @@ fun () ->
      Ccdac.Scaling.run ~tech ~style_of_bits ~trials ~seed bits_list
    in
    if json then
      print_endline (Telemetry.Json.to_string (Ccdac.Scaling.to_json t))
    else Format.printf "%a@." Ccdac.Scaling.pp t
  in
  let doc =
    "Run the full flow (plus a Monte-Carlo stage) across a bit-width ladder \
     and fit per-stage log-log growth exponents against the unit-cell count \
     — the scaling probe (docs/BENCH.md).  GC sampling is always on; \
     scheduler recording is on, so with $(b,--jobs) > 1 the report carries \
     pool utilization."
  in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(const run $ bits_list_arg $ style_arg $ gran_arg $ tech_arg
          $ trials_arg $ seed_arg $ json_arg $ verbose_arg $ trace_arg
          $ jobs_arg)

(* --- qor: record / diff / history / explain --- *)

let ledger_arg =
  let doc = "QoR ledger file (JSON Lines, appended to by $(b,record))." in
  Arg.(value & opt string "qor_ledger.jsonl"
       & info [ "ledger" ] ~docv:"FILE" ~doc)

let qor_json_arg =
  let doc = "Emit machine-readable JSON instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let qor_mem_arg =
  let doc =
    "Sample GC statistics during the runs so the records carry the \
     alloc_mb_total / peak_heap_mb / major_collections fields the memory \
     tolerance policies judge (docs/QOR.md)."
  in
  Arg.(value & flag & info [ "mem" ] ~doc)

let record_cmd =
  let run bits_list styles granularity tech repeat ledger json mem verbose =
    setup_logs verbose;
    check_repeat repeat;
    List.iter check_bits bits_list;
    let records, _ =
      Telemetry.Memory.with_enabled mem @@ fun () ->
      Telemetry.Metrics.collect @@ fun () ->
      Telemetry.Span.with_ ~name:"qor.record" @@ fun () ->
      let records = record_matrix ~tech ~granularity ~repeat bits_list styles in
      (try List.iter (fun r -> Qor.Ledger.append ~path:ledger r) records
       with Sys_error e ->
         Printf.eprintf "ccgen: cannot append to ledger: %s\n" e;
         exit 1);
      records
    in
    if json then
      print_endline
        (Telemetry.Json.to_string
           (Telemetry.Json.Arr (List.map Qor.Record.to_json records)))
    else begin
      List.iter
        (fun (r : Qor.Record.t) ->
           Printf.printf
             "%-28s f3dB %8.0f MHz  |INL| %6.3f  |DNL| %6.3f  vias %5d  \
              p+r %7.2f ms\n"
             r.Qor.Record.label r.Qor.Record.f3db_mhz r.Qor.Record.max_inl_lsb
             r.Qor.Record.max_dnl_lsb r.Qor.Record.via_cuts
             (1e3 *. r.Qor.Record.place_route_s))
        records;
      Printf.printf "recorded %d run(s) to %s\n" (List.length records) ledger
    end
  in
  let doc =
    "Run a (style, bits) matrix and append one schema-versioned QoR record \
     per configuration to the ledger."
  in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(const run $ matrix_bits_arg $ matrix_styles_arg $ gran_arg $ tech_arg
          $ repeat_arg $ ledger_arg $ qor_json_arg $ qor_mem_arg
          $ verbose_arg)

let baseline_arg =
  let doc = "Baseline document to diff against (BENCH_baseline.json)." in
  Arg.(required & opt (some string) None
       & info [ "baseline" ] ~docv:"FILE" ~doc)

let diff_cmd =
  let werror_arg =
    let doc = "Also fail on warning-severity regressions (times, area)." in
    Arg.(value & flag & info [ "werror" ] ~doc)
  in
  let run ledger baseline json werror =
    let baseline_records =
      match Qor.Baseline.load ~path:baseline with
      | Ok rs -> rs
      | Error e ->
        Printf.eprintf "ccgen: %s\n" e;
        exit 2
    in
    let current =
      match Qor.Ledger.load ~path:ledger with
      | records, complaints ->
        List.iter (fun c -> Printf.eprintf "ccgen: %s\n" c) complaints;
        Qor.Ledger.latest_by_label records
      | exception Sys_error e ->
        Printf.eprintf "ccgen: cannot read ledger: %s\n" e;
        exit 2
    in
    let cmp = Qor.Compare.diff ~baseline:baseline_records ~current in
    if json then
      print_endline (Telemetry.Json.to_string (Qor.Compare.to_json cmp))
    else print_string (Qor.Compare.text cmp);
    match Qor.Compare.gate ~werror cmp with
    | Ok () -> ()
    | Error failing ->
      if not json then
        Printf.eprintf "ccgen: QoR regression: %s\n"
          (String.concat ", "
             (List.map
                (fun (f : Qor.Compare.finding) ->
                   Printf.sprintf "%s (%s)" f.Qor.Compare.policy.Qor.Policy.id
                     f.Qor.Compare.label)
                failing));
      exit 1
  in
  let doc =
    "Diff the ledger's latest record of each configuration against a \
     committed baseline under the per-metric tolerance policies; nonzero \
     exit on regression.  Run $(b,record) first (into a scratch \
     $(b,--ledger) to leave the committed one untouched)."
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(const run $ ledger_arg $ baseline_arg $ qor_json_arg $ werror_arg)

let history_cmd =
  let last_arg =
    let doc = "Show only the last $(docv) records per configuration." in
    Arg.(value & opt int 10 & info [ "n"; "last" ] ~docv:"N" ~doc)
  in
  let label_arg =
    let doc = "Restrict to one configuration label, e.g. \"spiral b8\"." in
    Arg.(value & opt (some string) None & info [ "label" ] ~docv:"LABEL" ~doc)
  in
  let run ledger last label json =
    let records, complaints =
      try Qor.Ledger.load ~path:ledger
      with Sys_error e ->
        Printf.eprintf "ccgen: cannot read ledger: %s\n" e;
        exit 2
    in
    List.iter (fun c -> Printf.eprintf "ccgen: %s\n" c) complaints;
    let records =
      match label with
      | None -> records
      | Some l ->
        List.filter
          (fun (r : Qor.Record.t) -> String.equal r.Qor.Record.label l)
          records
    in
    (* keep the last [last] per label, preserving file order *)
    let keep =
      let counts = Hashtbl.create 16 in
      List.iter
        (fun (r : Qor.Record.t) ->
           let l = r.Qor.Record.label in
           Hashtbl.replace counts l
             (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
        records;
      let seen = Hashtbl.create 16 in
      List.filter
        (fun (r : Qor.Record.t) ->
           let l = r.Qor.Record.label in
           let i = 1 + Option.value ~default:0 (Hashtbl.find_opt seen l) in
           Hashtbl.replace seen l i;
           i > Hashtbl.find counts l - last)
        records
    in
    if json then
      print_endline
        (Telemetry.Json.to_string
           (Telemetry.Json.Arr (List.map Qor.Record.to_json keep)))
    else if keep = [] then
      Printf.printf "no records%s in %s\n"
        (match label with None -> "" | Some l -> " for " ^ l)
        ledger
    else
      List.iter
        (fun (r : Qor.Record.t) ->
           let t = r.Qor.Record.provenance.Qor.Provenance.timestamp_s in
           let tm = Unix.gmtime t in
           Printf.printf
             "%04d-%02d-%02dT%02d:%02d:%02dZ %-28s %-8s f3dB %8.0f  \
              |INL| %6.3f  vias %5d  p+r %7.2f ms\n"
             (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
             tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec r.Qor.Record.label
             (match r.Qor.Record.provenance.Qor.Provenance.git_commit with
              | Some c -> String.sub c 0 (min 8 (String.length c))
              | None -> "-")
             r.Qor.Record.f3db_mhz r.Qor.Record.max_inl_lsb
             r.Qor.Record.via_cuts
             (1e3 *. r.Qor.Record.place_route_s))
        keep
  in
  let doc = "Show the QoR trend stored in the ledger." in
  Cmd.v (Cmd.info "history" ~doc)
    Term.(const run $ ledger_arg $ last_arg $ label_arg $ qor_json_arg)

let explain_cmd =
  let top_arg =
    let doc = "Show only the $(docv) largest delay contributors." in
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc)
  in
  let run bits style granularity tech top json verbose =
    setup_logs verbose;
    check_bits bits;
    let style = resolve_style ~bits ~granularity style in
    let r = Ccdac.Flow.run ~tech ~bits style in
    let e = Qor.Explain.of_result r in
    if json then
      print_endline (Telemetry.Json.to_string (Qor.Explain.to_json e))
    else print_string (Qor.Explain.text ~top e)
  in
  let doc =
    "Attribute the worst-bit Elmore delay to physical elements (via stacks, \
     wire segments) and the worst-code INL to individual capacitors."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ bits_arg $ style_arg $ gran_arg $ tech_arg $ top_arg
          $ qor_json_arg $ verbose_arg)

(* --- sweep --- *)

let sweep_cmd =
  let run bits tech jobs =
    apply_jobs jobs;
    check_bits bits;
    let points =
      Ccdac.Sweep.parallel_sweep ~tech ~bits ~style:Ccplace.Style.Spiral
        [ 1; 2; 3; 4; 5; 6 ]
    in
    print_string (Ccdac.Report.fig6a [ (bits, points) ])
  in
  let doc = "Sweep the number of parallel wires on the spiral (Fig. 6a)." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const run $ bits_arg $ tech_arg $ jobs_arg)

(* --- version --- *)

let version_cmd =
  let run () = print_endline (Qor.Provenance.server ()) in
  let doc = "Print the release version with git/host provenance." in
  Cmd.v (Cmd.info "version" ~doc) Term.(const run $ const ())

let main =
  let doc =
    "constructive common-centroid placement and routing for binary-weighted \
     capacitor arrays (DATE 2022 reproduction)"
  in
  Cmd.group (Cmd.info "ccgen" ~version:Qor.Provenance.changelog ~doc)
    [ place_cmd; run_cmd; compare_cmd; tables_cmd; sweep_cmd; profile_cmd;
      scale_cmd; svg_cmd; mc_cmd; lint_cmd; lvs_cmd; record_cmd;
      diff_cmd; history_cmd; explain_cmd; version_cmd ]

(* The verification and LVS gates raise [Verify.Engine.Rejected] on a
   defective layout; turn that into a report and a nonzero exit instead of
   an uncaught-exception backtrace. *)
let () =
  try exit (Cmd.eval ~catch:false main)
  with Verify.Engine.Rejected { what; diagnostics } ->
    Printf.eprintf "ccgen: %s rejected:\n" what;
    prerr_string (Verify.Report.text diagnostics);
    exit 1
