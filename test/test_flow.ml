(* Tests for the top-level flow, sweeps and reports. *)

let run6 = Ccdac.Flow.run ~bits:6 Ccplace.Style.Spiral

let test_flow_fields_consistent () =
  Alcotest.(check int) "bits" 6 run6.Ccdac.Flow.bits;
  Alcotest.(check (float 1e-9)) "inl copied"
    run6.Ccdac.Flow.nonlinearity.Dacmodel.Nonlinearity.max_abs_inl
    run6.Ccdac.Flow.max_inl;
  Alcotest.(check (float 1e-9)) "tau copied"
    run6.Ccdac.Flow.parasitics.Extract.Parasitics.critical_elmore_fs
    run6.Ccdac.Flow.tau_fs;
  Alcotest.(check (float 1e-6)) "f3dB from tau"
    (Dacmodel.Speed.f3db_mhz ~bits:6 ~tau_fs:run6.Ccdac.Flow.tau_fs)
    run6.Ccdac.Flow.f3db_mhz;
  Alcotest.(check bool) "area positive" true (run6.Ccdac.Flow.area > 0.);
  Alcotest.(check bool) "elapsed recorded" true
    (run6.Ccdac.Flow.elapsed_place_route_s >= 0.)

let test_flow_critical_bit_in_range () =
  Alcotest.(check bool) "critical in range" true
    (run6.Ccdac.Flow.critical_bit >= 0 && run6.Ccdac.Flow.critical_bit <= 6)

let test_default_parallel_policy () =
  let p_s = Ccdac.Flow.default_parallel ~bits:8 Ccplace.Style.Spiral in
  let p_c = Ccdac.Flow.default_parallel ~bits:8 Ccplace.Style.Chessboard in
  Alcotest.(check bool) "spiral MSB parallel" true (p_s 8 > 1);
  Alcotest.(check int) "spiral LSB single" 1 (p_s 2);
  Alcotest.(check int) "chessboard single" 1 (p_c 8)

let test_place_route_only () =
  let layout, elapsed = Ccdac.Flow.place_route ~bits:6 Ccplace.Style.Chessboard in
  Alcotest.(check bool) "layout produced" true
    (layout.Ccroute.Layout.width > 0.);
  Alcotest.(check bool) "fast" true (elapsed < 10.)

(* The one median-of-repeat driver: a run from the middle of the sorted
   repeats, with the same outputs as a single run (the flow is
   deterministic), and no run at all for a repeat below 1. *)
let test_median_run () =
  Alcotest.check_raises "repeat 0"
    (Invalid_argument "Flow.median_run: repeat must be >= 1") (fun () ->
      ignore (Ccdac.Flow.median_run ~repeat:0 ~bits:6 Ccplace.Style.Spiral));
  let m = Ccdac.Flow.median_run ~repeat:3 ~bits:6 Ccplace.Style.Spiral in
  let outputs (r : Ccdac.Flow.result) =
    ( r.Ccdac.Flow.f3db_mhz,
      r.Ccdac.Flow.max_inl,
      r.Ccdac.Flow.max_dnl,
      r.Ccdac.Flow.tau_fs,
      r.Ccdac.Flow.area,
      r.Ccdac.Flow.critical_bit,
      r.Ccdac.Flow.parasitics.Extract.Parasitics.total_via_cuts )
  in
  Alcotest.(check bool) "outputs equal Flow.run's" true
    (outputs m = outputs run6);
  Alcotest.(check bool) "same layout" true
    (m.Ccdac.Flow.layout.Ccroute.Layout.wires
     = run6.Ccdac.Flow.layout.Ccroute.Layout.wires);
  Alcotest.(check bool) "timed" true (m.Ccdac.Flow.elapsed_place_route_s > 0.)

let test_custom_tech () =
  let r = Ccdac.Flow.run ~tech:Tech.Process.bulk_legacy ~bits:6 Ccplace.Style.Spiral in
  Alcotest.(check bool) "runs on bulk" true (r.Ccdac.Flow.f3db_mhz > 0.)

(* The Table III runtime must be exactly the place and route stage times
   on the monotonic clock — the verification gate runs on its own stage
   and is excluded (it would otherwise bias the paper-comparable number
   by the full lint cost). *)
let test_elapsed_excludes_verify_gate () =
  let r = run6 in
  let t = r.Ccdac.Flow.telemetry in
  let stage n =
    match Telemetry.Summary.stage_seconds t n with
    | Some s -> s
    | None -> Alcotest.failf "stage %s missing" n
  in
  Alcotest.(check (float 1e-12)) "elapsed = place + route"
    (stage "place" +. stage "route")
    (Ccdac.Flow.elapsed_place_route_s r);
  (* the gate did run and was timed — it is excluded, not skipped *)
  Alcotest.(check bool) "verify stage present" true
    (List.mem "verify" (Telemetry.Summary.stage_names t));
  Alcotest.(check bool) "verify not in elapsed" true
    (r.Ccdac.Flow.elapsed_place_route_s
     <= t.Telemetry.Summary.total_s -. stage "verify" +. 1e-9)

(* A hand-refined 6-bit spiral that no style builds: its first C_6 cell
   and first C_5 cell trade places, and so do their mirror cells, which
   keeps the counts and the common-centroid symmetry. *)
let refined_spiral6 () =
  let p = Ccplace.Spiral.place ~bits:6 in
  let rows = p.Ccgrid.Placement.rows and cols = p.Ccgrid.Placement.cols in
  let assign = Array.map Array.copy p.Ccgrid.Placement.assign in
  let swap (a : Ccgrid.Cell.t) (b : Ccgrid.Cell.t) =
    let t = assign.(a.row).(a.col) in
    assign.(a.row).(a.col) <- assign.(b.row).(b.col);
    assign.(b.row).(b.col) <- t
  in
  let c6 = List.hd (Ccgrid.Placement.cells_of p 6)
  and c5 = List.hd (Ccgrid.Placement.cells_of p 5) in
  swap c6 c5;
  swap (Ccgrid.Cell.mirror ~rows ~cols c6) (Ccgrid.Cell.mirror ~rows ~cols c5);
  Ccgrid.Placement.create ~bits:6 ~rows ~cols
    ~unit_multiplier:p.Ccgrid.Placement.unit_multiplier
    ~counts:p.Ccgrid.Placement.counts ~assign ~style_name:"spiral+swapped"

let test_run_placement_refined () =
  let placement = refined_spiral6 () in
  Alcotest.(check bool) "not the spiral" true
    (placement.Ccgrid.Placement.assign
     <> (Ccplace.Spiral.place ~bits:6).Ccgrid.Placement.assign);
  (* the verify and LVS gates are on: a rejection would raise *)
  let r = Ccdac.Flow.run_placement placement in
  Alcotest.(check int) "bits" 6 r.Ccdac.Flow.bits;
  Alcotest.(check bool) "analysed" true (r.Ccdac.Flow.f3db_mhz > 0.)

let test_run_placement_rejects_general_ratios () =
  let p = Ccplace.General.clustered ~counts:[| 2; 2; 4 |] in
  Alcotest.(check bool) "non-binary rejected" true
    (try ignore (Ccdac.Flow.run_placement p); false
     with Invalid_argument _ -> true)

(* --- the input gate --- *)

(* The error rule ids [f ()] is rejected with; [f] must raise
   [Verify.Engine.Rejected] (any other exception fails the test). *)
let rejected_with f =
  match f () with
  | _ -> Alcotest.fail "accepted an out-of-domain input"
  | exception Verify.Engine.Rejected { diagnostics; _ } ->
    List.sort_uniq String.compare
      (List.map
         (fun (d : Diag.t) -> d.Diag.rule.Diag.id)
         (Diag.errors diagnostics))

(* An out-of-domain input class meets rule [rule] in [Flow.run] and
   [Flow.place_route], under the same error rule ids as
   [Verify.Engine.lint], before the placer or the router sees it. *)
let check_input_gate ?(tech = Tech.Process.finfet_12nm) ~rule inputs =
  List.iter
    (fun (bits, style) ->
       let what = Printf.sprintf "%s %d-bit" (Ccplace.Style.name style) bits in
       let linted =
         List.sort_uniq String.compare
           (List.map
              (fun (d : Diag.t) -> d.Diag.rule.Diag.id)
              (Diag.errors (Verify.Engine.lint ~tech ~bits style)))
       in
       Alcotest.(check bool) (what ^ ": lint names " ^ rule) true (List.mem rule linted);
       Alcotest.(check (list string)) (what ^ ": run") linted
         (rejected_with (fun () -> Ccdac.Flow.run ~tech ~bits style));
       Alcotest.(check (list string)) (what ^ ": place_route") linted
         (rejected_with (fun () -> Ccdac.Flow.place_route ~tech ~bits style)))
    inputs

let test_gate_core_bits () =
  check_input_gate ~rule:"style/block-core-bits"
    [ (8, Ccplace.Style.Block_chess { core_bits = 0; granularity = 2 });
      (8, Ccplace.Style.Block_chess { core_bits = 8; granularity = 2 }) ]

let test_gate_granularity () =
  check_input_gate ~rule:"style/block-granularity"
    [ (8, Ccplace.Style.Block_chess { core_bits = 4; granularity = 0 }) ]

let test_gate_bits () =
  check_input_gate ~rule:"style/bits-range"
    [ (0, Ccplace.Style.Spiral); (17, Ccplace.Style.Spiral) ]

(* an empty layer stack: [run_placement] checks the tech before routing
   too *)
let test_gate_layer_stack () =
  let tech = { Tech.Process.finfet_12nm with Tech.Process.stack = [] } in
  check_input_gate ~tech ~rule:"tech/layer-stack" [ (6, Ccplace.Style.Spiral) ];
  Alcotest.(check (list string)) "run_placement" [ "tech/layer-stack" ]
    (rejected_with (fun () ->
         Ccdac.Flow.run_placement ~tech (Ccplace.Spiral.place ~bits:6)))

(* a cell width a tenth of a nanometre off: every column centre adds
   half of a 1770.4 nm pitch *)
let test_gate_grid () =
  let tech = { Tech.Process.finfet_12nm with Tech.Process.cell_width = 1.7004 } in
  check_input_gate ~tech ~rule:"tech/grid"
    [ (6, Ccplace.Style.Spiral); (8, Ccplace.Style.Chessboard) ];
  Alcotest.(check (list string)) "run_placement" [ "tech/grid" ]
    (rejected_with (fun () ->
         Ccdac.Flow.run_placement ~tech (Ccplace.Spiral.place ~bits:6)))

(* ROADMAP item 1's 16x16 8-bit label grid, whose stubs of C_6, C_7 and
   C_8 meet in channel 15: the verify gate rejects it under
   route/stub-separation before LVS would find the short. *)
let test_gate_stub_short () =
  match Ccgrid.Serial.load ~path:"stub_short_8bit.cc" with
  | Error msg -> Alcotest.fail msg
  | Ok p ->
    Alcotest.(check (list string)) "run_placement" [ "route/stub-separation" ]
      (rejected_with (fun () -> Ccdac.Flow.run_placement p))

(* Perturbed techs: each of the four lengths the router sums is a whole
   number of nanometres in a plausible range, plus an offset: none (3 in
   4), float-rounding size (1e-13 um), or 1e-11 to 1e-4 um either way.
   The rule admits exactly the techs with no offset past float rounding,
   about 3 in 5, and every tech it admits routes verify- and LVS-clean at
   6 bits in every style; every other one is rejected under tech/grid
   before placing. *)
let gen_perturbed =
  let open QCheck.Gen in
  let offset =
    frequency
      [ (12, return 0.); (2, oneofl [ 1e-13; -1e-13 ]);
        (2, oneofl [ 1e-11; -1e-11; 1e-9; -1e-9; 1e-7; -1e-7; 5e-7; -5e-7;
                     9e-7; -9e-7; 1e-4; -1e-4 ]) ]
  in
  let field lo hi = pair (int_range lo hi) offset in
  (* nanometres: wire pitch, cell width, cell height, cell spacing *)
  quad (field 40 120) (field 1000 2500) (field 1000 2500) (field 1 150)

let perturbed_tech (pitch, width, height, spacing) =
  let um (nm, off) = (float_of_int nm /. 1000.) +. off in
  { Tech.Process.finfet_12nm with
    Tech.Process.wire_pitch = um pitch;
    cell_width = um width;
    cell_height = um height;
    cell_spacing = um spacing }

let perturbed_arb =
  QCheck.make
    ~print:(fun fields ->
        let t = perturbed_tech fields in
        Printf.sprintf "pitch %.17g, width %.17g, height %.17g, spacing %.17g um"
          t.Tech.Process.wire_pitch t.Tech.Process.cell_width
          t.Tech.Process.cell_height t.Tech.Process.cell_spacing)
    gen_perturbed

let prop_perturbed_techs =
  QCheck.Test.make ~name:"perturbed techs: admitted ones route LVS-clean"
    ~count:100 perturbed_arb
    (fun (((_, op), (_, ow), (_, oh), (_, os)) as fields) ->
       let whole =
         List.for_all (fun off -> Float.abs off <= 1e-12) [ op; ow; oh; os ]
       in
       let tech = perturbed_tech fields in
       let admitted = Verify.Engine.check_tech tech = [] in
       admitted = whole
       && List.for_all
         (fun style ->
            if admitted then begin
              (* the verify and LVS gates raise on any defect *)
              ignore (Ccdac.Flow.place_route ~tech ~bits:6 style : _ * float);
              true
            end
            else
              rejected_with (fun () -> Ccdac.Flow.place_route ~tech ~bits:6 style)
              = [ "tech/grid" ])
         Ccplace.Style.[ Rowwise; Chessboard; Spiral; block_default ~bits:6 ])

(* --- sweep --- *)

(* the BC entry of [Sweep.row], the best of its family *)
let best_block ~bits = List.nth (Ccdac.Sweep.row ~bits ()) 3

let test_best_block_is_block () =
  let r = best_block ~bits:6 in
  match r.Ccdac.Flow.style with
  | Ccplace.Style.Block_chess _ -> ()
  | Ccplace.Style.Spiral | Ccplace.Style.Chessboard | Ccplace.Style.Rowwise ->
    Alcotest.fail "the row's BC entry must be a BC result"

let test_best_block_beats_family_on_f3db () =
  let best = best_block ~bits:6 in
  List.iter
    (fun style ->
       let r = Ccdac.Flow.run ~bits:6 style in
       Alcotest.(check bool) "best is max (among acceptable)" true
         (best.Ccdac.Flow.f3db_mhz >= r.Ccdac.Flow.f3db_mhz -. 1e-9
          || r.Ccdac.Flow.max_inl > 0.5 || r.Ccdac.Flow.max_dnl > 0.5))
    (Ccplace.Style.block_family ~bits:6)

let test_row_shape () =
  let rows = Ccdac.Sweep.row ~bits:6 () in
  Alcotest.(check int) "four methods" 4 (List.length rows);
  match List.map (fun r -> Ccplace.Style.label r.Ccdac.Flow.style) rows with
  | [ "[1]"; "[7]"; "S"; "BC" ] -> ()
  | labels -> Alcotest.failf "unexpected order: %s" (String.concat "," labels)

let test_parallel_sweep () =
  let points =
    Ccdac.Sweep.parallel_sweep ~bits:6 ~style:Ccplace.Style.Spiral [ 1; 2; 4 ]
  in
  Alcotest.(check int) "three points" 3 (List.length points);
  match points with
  | (1, f1) :: (2, f2) :: (4, f4) :: [] ->
    Alcotest.(check bool) "k=2 improves" true (f2 > f1);
    Alcotest.(check bool) "k=4 at least k=2" true (f4 >= f2 *. 0.8)
  | _ -> Alcotest.fail "unexpected shape"

(* --- report --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  m = 0 || scan 0

let rows6 = [ (6, Ccdac.Sweep.row ~bits:6 ()) ]

let test_report_table1 () =
  let s = Ccdac.Report.table1 rows6 in
  Alcotest.(check bool) "header" true (contains s "Table I");
  Alcotest.(check bool) "methods" true
    (contains s "[1]" && contains s "[7]" && contains s "S" && contains s "BC")

let test_report_table2 () =
  let s = Ccdac.Report.table2 rows6 in
  Alcotest.(check bool) "header" true (contains s "Table II");
  Alcotest.(check bool) "f3dB column" true (contains s "f3dB")

let test_report_table3 () =
  let s =
    Ccdac.Report.table3 [ (6, 0.01, 0.02); (7, 0.03, 0.04); (8, 9e-6, 1.2e-4) ]
  in
  let lines = String.split_on_char '\n' s in
  let row bits spiral bc = Printf.sprintf "%-7d %12s %12s" bits spiral bc in
  Alcotest.(check bool) "header" true (contains s "Table III");
  Alcotest.(check bool) "milliseconds" true
    (List.mem (Printf.sprintf "%-7s %12s %12s" "bits" "Spiral ms" "BC ms") lines);
  Alcotest.(check bool) "rows" true
    (List.mem (row 6 "10.000" "20.000") lines
     && List.mem (row 7 "30.000" "40.000") lines);
  (* a 9 us place+route, the size of a 6-bit spiral, is not rounded away *)
  Alcotest.(check bool) "9 us row" true
    (List.mem (row 8 "0.009" "0.120") lines)

let test_report_fig6 () =
  let a = Ccdac.Report.fig6a [ (6, [ (1, 100.); (2, 220.) ]) ] in
  Alcotest.(check bool) "normalised" true (contains a "k=1:1.00x");
  Alcotest.(check bool) "factor" true (contains a "k=2:2.20x");
  let b = Ccdac.Report.fig6b rows6 in
  Alcotest.(check bool) "spiral is 1.0" true (contains b "S:1.0000")

let test_csv_metrics () =
  let s = Ccdac.Csv.metrics_rows rows6 in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  (* header + 4 methods *)
  Alcotest.(check int) "lines" 5 (List.length lines);
  (match lines with
   | header :: _ ->
     Alcotest.(check string) "header" Ccdac.Csv.metrics_header header
   | [] -> Alcotest.fail "empty csv");
  List.iter
    (fun line ->
       Alcotest.(check int) "field count"
         (List.length (String.split_on_char ',' Ccdac.Csv.metrics_header))
         (List.length (String.split_on_char ',' line)))
    lines

let test_csv_parallel_sweep () =
  let s = Ccdac.Csv.parallel_sweep_csv [ (6, [ (1, 100.); (2, 250.) ]) ] in
  Alcotest.(check bool) "header" true (contains s "bits,k,f3db_mhz,improvement");
  Alcotest.(check bool) "row" true (contains s "6,2,250.000,2.5000")

let test_csv_write () =
  let path = Filename.temp_file "ccdac" ".csv" in
  Ccdac.Csv.write ~path "a,b\n1,2\n";
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "roundtrip" "a,b" line

let test_report_summary () =
  let s = Ccdac.Report.summary run6 in
  Alcotest.(check bool) "style" true (contains s "spiral");
  Alcotest.(check bool) "f3dB" true (contains s "f3dB")

let () =
  Alcotest.run "ccdac"
    [ ( "flow",
        [ Alcotest.test_case "fields" `Quick test_flow_fields_consistent;
          Alcotest.test_case "critical bit" `Quick test_flow_critical_bit_in_range;
          Alcotest.test_case "parallel policy" `Quick test_default_parallel_policy;
          Alcotest.test_case "place_route" `Quick test_place_route_only;
          Alcotest.test_case "median run" `Quick test_median_run;
          Alcotest.test_case "custom tech" `Quick test_custom_tech;
          Alcotest.test_case "verify-gate time excluded" `Quick
            test_elapsed_excludes_verify_gate;
          Alcotest.test_case "run_placement refined" `Quick test_run_placement_refined;
          Alcotest.test_case "run_placement general" `Quick test_run_placement_rejects_general_ratios;
          Alcotest.test_case "input gate: block core bits" `Quick test_gate_core_bits;
          Alcotest.test_case "input gate: granularity" `Quick test_gate_granularity;
          Alcotest.test_case "input gate: bits range" `Quick test_gate_bits;
          Alcotest.test_case "input gate: layer stack" `Quick test_gate_layer_stack;
          Alcotest.test_case "input gate: tech grid" `Quick test_gate_grid;
          Alcotest.test_case "stub short before LVS" `Quick test_gate_stub_short;
          QCheck_alcotest.to_alcotest prop_perturbed_techs ] );
      ( "sweep",
        [ Alcotest.test_case "best block is BC" `Quick test_best_block_is_block;
          Alcotest.test_case "best block max" `Quick test_best_block_beats_family_on_f3db;
          Alcotest.test_case "row shape" `Quick test_row_shape;
          Alcotest.test_case "parallel sweep" `Quick test_parallel_sweep ] );
      ( "report",
        [ Alcotest.test_case "table1" `Quick test_report_table1;
          Alcotest.test_case "table2" `Quick test_report_table2;
          Alcotest.test_case "table3" `Quick test_report_table3;
          Alcotest.test_case "fig6" `Quick test_report_fig6;
          Alcotest.test_case "csv metrics" `Quick test_csv_metrics;
          Alcotest.test_case "csv sweep" `Quick test_csv_parallel_sweep;
          Alcotest.test_case "csv write" `Quick test_csv_write;
          Alcotest.test_case "summary" `Quick test_report_summary ] ) ]
