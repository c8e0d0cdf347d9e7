(* Tests for RC-network extraction and the Table-I metrics. *)

let tech = Tech.Process.finfet_12nm

let layout_of ?p_of_cap style bits =
  let p = Ccplace.Style.place ~bits style in
  Ccroute.Layout.route tech ?p_of_cap p

let spiral6 = layout_of Ccplace.Style.Spiral 6
let chess6 = layout_of Ccplace.Style.Chessboard 6

(* --- netbuild --- *)

let test_net_reaches_every_cell () =
  for cap = 0 to 6 do
    let net = Extract.Netbuild.build spiral6 ~cap in
    Alcotest.(check int)
      (Printf.sprintf "C_%d cells in tree" cap)
      spiral6.Ccroute.Layout.placement.Ccgrid.Placement.counts.(cap)
      (Array.length net.Extract.Netbuild.cell_nodes);
    (* reachability: Elmore does not raise, i.e. the net is a tree that
       spans every node *)
    let d = Rcnet.Elmore.delays net.Extract.Netbuild.tree ~root:net.Extract.Netbuild.root in
    Alcotest.(check bool) "all delays finite" true
      (Array.for_all (fun x -> Float.is_finite x) d)
  done

let test_net_total_cap_includes_units () =
  let cap = 6 in
  let net = Extract.Netbuild.build spiral6 ~cap in
  let unit_total =
    float_of_int spiral6.Ccroute.Layout.placement.Ccgrid.Placement.counts.(cap)
    *. tech.Tech.Process.unit_cap
  in
  Alcotest.(check bool) "total >= units" true
    (Rcnet.Rctree.total_cap net.Extract.Netbuild.tree >= unit_total -. 1e-9)

let test_net_positive_delay () =
  let net = Extract.Netbuild.build spiral6 ~cap:6 in
  Alcotest.(check bool) "positive" true (Extract.Netbuild.worst_elmore_fs net > 0.)

let test_net_rejects_bad_cap () =
  Alcotest.(check bool) "bad cap" true
    (try ignore (Extract.Netbuild.build spiral6 ~cap:42); false
     with Invalid_argument _ -> true)

let test_plate_resistance_slows_net () =
  let slow_tech = { tech with Tech.Process.plate_resistance = 50. } in
  let p = Ccplace.Style.place ~bits:6 Ccplace.Style.Spiral in
  let fast = Ccroute.Layout.route tech p in
  let slow = Ccroute.Layout.route slow_tech p in
  let tau layout = Extract.Netbuild.worst_elmore_fs (Extract.Netbuild.build layout ~cap:6) in
  Alcotest.(check bool) "higher plate R, slower" true (tau slow > tau fast)

let test_parallel_wires_speed_up_net () =
  let p1 = layout_of ~p_of_cap:(fun _ -> 1) Ccplace.Style.Spiral 8 in
  let p4 = layout_of ~p_of_cap:(Ccroute.Layout.msb_parallel ~bits:8 ~p:4) Ccplace.Style.Spiral 8 in
  let tau layout = Extract.Netbuild.worst_elmore_fs (Extract.Netbuild.build layout ~cap:8) in
  Alcotest.(check bool) "parallel faster" true (tau p4 < tau p1)

(* --- parasitics --- *)

let par6 = Extract.Parasitics.extract spiral6
let par_chess = Extract.Parasitics.extract chess6

let test_parasitics_totals_are_sums () =
  let sum f = Array.fold_left (fun acc m -> acc +. f m) 0. par6.Extract.Parasitics.per_bit in
  Alcotest.(check (float 1e-6)) "wire cap"
    par6.Extract.Parasitics.total_wire_cap
    (sum (fun m -> m.Extract.Parasitics.bm_wire_cap));
  Alcotest.(check (float 1e-6)) "wirelength"
    par6.Extract.Parasitics.total_wirelength
    (sum (fun m -> m.Extract.Parasitics.bm_wirelength));
  let cut_sum =
    Array.fold_left (fun acc m -> acc + m.Extract.Parasitics.bm_via_cuts) 0
      par6.Extract.Parasitics.per_bit
  in
  Alcotest.(check int) "via cuts" par6.Extract.Parasitics.total_via_cuts cut_sum

let test_parasitics_critical_bit_is_argmax () =
  let worst =
    Array.fold_left
      (fun acc m -> Float.max acc m.Extract.Parasitics.bm_elmore_fs)
      0. par6.Extract.Parasitics.per_bit
  in
  Alcotest.(check (float 1e-9)) "critical elmore"
    worst par6.Extract.Parasitics.critical_elmore_fs;
  Alcotest.(check (float 1e-9)) "matches per-bit entry"
    worst
    par6.Extract.Parasitics.per_bit.(par6.Extract.Parasitics.critical_bit)
      .Extract.Parasitics.bm_elmore_fs

let test_parasitics_area_matches_layout () =
  Alcotest.(check (float 1e-6)) "area"
    (spiral6.Ccroute.Layout.width *. spiral6.Ccroute.Layout.height)
    par6.Extract.Parasitics.area

let test_parasitics_top_cap () =
  Alcotest.(check (float 1e-9)) "C^TS"
    (spiral6.Ccroute.Layout.top_length *. tech.Tech.Process.top_substrate_cap)
    par6.Extract.Parasitics.total_top_cap

let test_parasitics_total_resistance () =
  Array.iter
    (fun m ->
       Alcotest.(check (float 1e-9)) "R = RV + Rw"
         (m.Extract.Parasitics.bm_via_resistance
          +. m.Extract.Parasitics.bm_wire_resistance)
         (Extract.Parasitics.total_resistance m))
    par6.Extract.Parasitics.per_bit

let test_parasitics_branch_excluded () =
  (* the spiral MSB is a big connected group: its routed wirelength must be
     far below the abutment length it would otherwise include *)
  let msb = par6.Extract.Parasitics.per_bit.(6) in
  let abutment_length =
    (* >= 31 edges of ~1.77 um if branches were counted *)
    30. *. Tech.Process.cell_pitch_x tech
  in
  Alcotest.(check bool) "branch abutment not counted" true
    (msb.Extract.Parasitics.bm_wirelength < abutment_length)

let test_chessboard_via_heavy () =
  Alcotest.(check bool) "chessboard uses more vias" true
    (par_chess.Extract.Parasitics.total_via_cuts
     > 2 * par6.Extract.Parasitics.total_via_cuts / 1)

let test_coupling_nonnegative () =
  Alcotest.(check bool) "C^BB >= 0" true
    (par6.Extract.Parasitics.total_coupling_cap >= 0.);
  Alcotest.(check bool) "chessboard couples more" true
    (par_chess.Extract.Parasitics.total_coupling_cap
     > par6.Extract.Parasitics.total_coupling_cap)

let test_metrics_nonnegative () =
  Array.iter
    (fun m ->
       Alcotest.(check bool) "all >= 0" true
         (m.Extract.Parasitics.bm_via_cuts >= 0
          && m.Extract.Parasitics.bm_wirelength >= 0.
          && m.Extract.Parasitics.bm_via_resistance >= 0.
          && m.Extract.Parasitics.bm_wire_resistance >= 0.
          && m.Extract.Parasitics.bm_wire_cap >= 0.
          && m.Extract.Parasitics.bm_elmore_fs >= 0.))
    par6.Extract.Parasitics.per_bit

let prop_extract_any_config =
  QCheck.Test.make ~name:"extraction sane on random config" ~count:30
    QCheck.(pair (int_range 2 8) (int_range 0 3))
    (fun (bits, idx) ->
       let style =
         match idx with
         | 0 -> Ccplace.Style.Spiral
         | 1 -> Ccplace.Style.Chessboard
         | 2 -> Ccplace.Style.Rowwise
         | _ -> Ccplace.Style.block_default ~bits
       in
       let layout = layout_of style bits in
       let par = Extract.Parasitics.extract layout in
       par.Extract.Parasitics.critical_elmore_fs > 0.
       && par.Extract.Parasitics.area > 0.
       && par.Extract.Parasitics.total_via_cuts > 0
       && par.Extract.Parasitics.critical_bit >= 0
       && par.Extract.Parasitics.critical_bit <= bits)

let () =
  Alcotest.run "extract"
    [ ( "netbuild",
        [ Alcotest.test_case "reaches every cell" `Quick test_net_reaches_every_cell;
          Alcotest.test_case "total cap" `Quick test_net_total_cap_includes_units;
          Alcotest.test_case "positive delay" `Quick test_net_positive_delay;
          Alcotest.test_case "bad cap" `Quick test_net_rejects_bad_cap;
          Alcotest.test_case "plate R slows" `Quick test_plate_resistance_slows_net;
          Alcotest.test_case "parallel speeds" `Quick test_parallel_wires_speed_up_net ] );
      ( "parasitics",
        [ Alcotest.test_case "totals" `Quick test_parasitics_totals_are_sums;
          Alcotest.test_case "critical bit" `Quick test_parasitics_critical_bit_is_argmax;
          Alcotest.test_case "area" `Quick test_parasitics_area_matches_layout;
          Alcotest.test_case "C^TS" `Quick test_parasitics_top_cap;
          Alcotest.test_case "R total" `Quick test_parasitics_total_resistance;
          Alcotest.test_case "branch excluded" `Quick test_parasitics_branch_excluded;
          Alcotest.test_case "chessboard vias" `Quick test_chessboard_via_heavy;
          Alcotest.test_case "coupling" `Quick test_coupling_nonnegative;
          Alcotest.test_case "nonnegative" `Quick test_metrics_nonnegative ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_extract_any_config ] ) ]
