(* Scale tests: the flow at resolutions beyond the paper's 6-10 bit range
   (all `Slow`; dune runtest executes them, use `-q` filters to skip). *)

let tech = Tech.Process.finfet_12nm

let test_11_bit_flow () =
  let r = Ccdac.Flow.run ~bits:11 Ccplace.Style.Spiral in
  Alcotest.(check bool) "f3dB positive" true (r.Ccdac.Flow.f3db_mhz > 0.);
  Alcotest.(check bool) "INL finite" true (Float.is_finite r.Ccdac.Flow.max_inl);
  Alcotest.(check int) "2048 cells + dummies covered" 2048
    (Array.fold_left ( + ) 0 r.Ccdac.Flow.placement.Ccgrid.Placement.counts)

let test_12_bit_place_route () =
  (* full analysis at 12 bits costs a quadratic covariance build; place,
     route and extraction alone must stay fast and clean *)
  let layout, elapsed =
    Ccdac.Flow.place_route ~bits:12 Ccplace.Style.Spiral
  in
  Alcotest.(check bool) "under 30 s" true (elapsed < 30.);
  Alcotest.(check int) "clean" 0
    (List.length (Verify.Engine.check_layout layout));
  let par = Extract.Parasitics.extract layout in
  Alcotest.(check bool) "extraction sane" true
    (par.Extract.Parasitics.critical_elmore_fs > 0.)

let test_11_bit_chessboard_doubles () =
  let p = Ccplace.Chessboard.place ~bits:11 in
  Alcotest.(check int) "multiplier" 2 p.Ccgrid.Placement.unit_multiplier;
  Alcotest.(check int) "4096 cells" 4096
    (p.Ccgrid.Placement.rows * p.Ccgrid.Placement.cols);
  match Ccgrid.Placement.validate p with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_12_bit_trends_hold () =
  let spiral, _ = Ccdac.Flow.place_route ~bits:12 Ccplace.Style.Spiral in
  let chess, _ = Ccdac.Flow.place_route ~bits:12 Ccplace.Style.Chessboard in
  let tau layout =
    (Extract.Parasitics.extract layout).Extract.Parasitics.critical_elmore_fs
  in
  Alcotest.(check bool) "spiral still much faster at 12 bits" true
    (tau chess > 3. *. tau spiral)

let test_15_bit_rowwise_lvs_clean () =
  (* rowwise strips leave one cell per group on a channel, so a stub
     precedence cycle there can only be broken by moving a connection to
     the neighbouring channel; at 15 bits C_10/C_11 otherwise short *)
  let layout, _ = Ccdac.Flow.place_route ~verify:false ~bits:15 Ccplace.Style.Rowwise in
  Alcotest.(check int) "LVS clean" 0 (List.length (Lvs.Check.check layout))

let test_deep_general_ratio () =
  (* a big thermometer bank: 63 segments of 16 cells *)
  let counts = Array.append [| 1; 1; 2; 4; 8 |] (Array.make 63 16) in
  let p = Ccplace.General.clustered ~counts in
  (match Ccgrid.Placement.validate p with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  let layout = Ccroute.Layout.route tech p in
  Alcotest.(check int) "clean" 0
    (List.length (Verify.Engine.check_layout layout))

let () =
  Alcotest.run "scale"
    [ ( "deep resolutions",
        [ Alcotest.test_case "11-bit flow" `Slow test_11_bit_flow;
          Alcotest.test_case "12-bit place+route" `Slow test_12_bit_place_route;
          Alcotest.test_case "11-bit chessboard" `Slow test_11_bit_chessboard_doubles;
          Alcotest.test_case "12-bit trends" `Slow test_12_bit_trends_hold;
          Alcotest.test_case "15-bit rowwise LVS" `Slow test_15_bit_rowwise_lvs_clean;
          Alcotest.test_case "big thermometer" `Slow test_deep_general_ratio ] ) ]
