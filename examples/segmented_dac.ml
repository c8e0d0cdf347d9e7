(* Segmented-DAC layout with arbitrary capacitor ratios.

   A 4+4 segmented DAC decodes its four MSBs to a thermometer bank of 15
   equal capacitors (16 C_u each) and keeps four binary LSBs — the
   standard trick to guarantee monotonicity.  The paper's constructive CC
   machinery is ratio-agnostic below the placement styles, so the general
   placements route and extract through the same flow.

   Run with: dune exec examples/segmented_dac.exe *)

let tech = Tech.Process.finfet_12nm

(* capacitor 0 is the grounded terminator; 1..4 binary; 5..19 thermometer *)
let counts = Array.append [| 1; 1; 2; 4; 8 |] (Array.make 15 16)

let describe name p =
  Printf.printf "=== %s ===\n" name;
  (match Ccgrid.Placement.validate p with
   | Ok () -> ()
   | Error m -> failwith m);
  print_string (Ccgrid.Render.ascii p);
  let layout = Ccroute.Layout.route tech p in
  Verify.Engine.assert_clean ~what:name (Verify.Engine.check_layout layout);
  let par = Extract.Parasitics.extract layout in
  let worst_therm_err =
    (* matching between thermometer segments is what guarantees
       monotonicity: report the worst per-segment centroid error and the
       spread of their gradient-shifted values *)
    let values =
      Array.init 15 (fun i ->
          let ps =
            Array.of_list
              (List.map
                 (Ccgrid.Placement.position tech p)
                 (Ccgrid.Placement.cells_of p (5 + i)))
          in
          Capmodel.Gradient.capacitor_value tech ps)
    in
    let lo = Array.fold_left Float.min Float.infinity values in
    let hi = Array.fold_left Float.max Float.neg_infinity values in
    (hi -. lo) /. (16. *. tech.Tech.Process.unit_cap)
  in
  Printf.printf
    "area %.0f um^2, %d via cuts, %.0f um routing, critical tau %.1f ps\n"
    par.Extract.Parasitics.area par.Extract.Parasitics.total_via_cuts
    par.Extract.Parasitics.total_wirelength
    (par.Extract.Parasitics.critical_elmore_fs /. 1000.);
  Printf.printf "thermometer segment spread under gradient: %.2e (relative)\n\n"
    worst_therm_err

let () =
  Printf.printf
    "4+4 segmented DAC: 15 thermometer segments of 16 cells + binary LSBs\n";
  Printf.printf "(256 unit cells + terminator, %d capacitors)\n\n"
    (Array.length counts);
  describe "general-interleaved (dispersion-oriented)"
    (Ccplace.General.interleaved ~counts);
  describe "general-clustered (interconnect-oriented)"
    (Ccplace.General.clustered ~counts)
