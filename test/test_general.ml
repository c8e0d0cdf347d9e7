(* Tests for arbitrary-ratio common-centroid placement. *)

let tech = Tech.Process.finfet_12nm

let check_valid p =
  match Ccgrid.Placement.validate p with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let segmented =
  (* 4+4 segmented DAC: binary LSBs 1,1,2,4,8 + 15 thermometer units of 16 *)
  Array.append [| 1; 1; 2; 4; 8 |] (Array.make 15 16)

let test_segmented_valid_both_styles () =
  List.iter
    (fun place ->
       let p = place ~counts:segmented in
       check_valid p;
       Alcotest.(check int) "capacitors" 20 (Ccgrid.Placement.num_caps p))
    [ Ccplace.General.interleaved; Ccplace.General.clustered ]

let test_even_ratio_caps_exactly_centred () =
  let p = Ccplace.General.clustered ~counts:segmented in
  Array.iteri
    (fun k n ->
       if n mod 2 = 0 then begin
         let err = Ccgrid.Placement.centroid_error tech p k in
         if err > 1e-9 then Alcotest.failf "C_%d centroid error %g" k err
       end)
    segmented

let test_odd_ratio_caps_near_centre () =
  let counts = [| 3; 5; 7 |] in
  List.iter
    (fun place ->
       let p = place ~counts in
       let pitch = Tech.Process.cell_pitch_x tech in
       Array.iteri
         (fun k _ ->
            let err = Ccgrid.Placement.centroid_error tech p k in
            if err > 2. *. pitch then
              Alcotest.failf "C_%d centroid error %g > 2 pitch" k err)
         counts)
    [ Ccplace.General.interleaved; Ccplace.General.clustered ]

let test_odd_total_gets_odd_grid () =
  let p = Ccplace.General.clustered ~counts:[| 3; 5; 7 |] in
  Alcotest.(check int) "odd rows" 1 (p.Ccgrid.Placement.rows mod 2);
  Alcotest.(check int) "odd cols" 1 (p.Ccgrid.Placement.cols mod 2);
  (* the centre cell hosts the leftover odd cell *)
  let center =
    Ccgrid.Cell.make ~row:(p.Ccgrid.Placement.rows / 2)
      ~col:(p.Ccgrid.Placement.cols / 2)
  in
  match Ccgrid.Placement.cap_at p center with
  | Some _ -> ()
  | None -> Alcotest.fail "centre cell must hold the leftover odd cell"

let test_binary_counts_match_dedicated_machinery () =
  (* a binary ratio list through the general path still yields a valid
     exactly-CC placement of the same size as the dedicated styles *)
  let counts = Ccgrid.Weights.unit_counts ~bits:6 in
  let p = Ccplace.General.clustered ~counts in
  check_valid p;
  Alcotest.(check int) "8x8" 8 p.Ccgrid.Placement.rows;
  Alcotest.(check (float 1e-9)) "exact CC" 0.
    (Ccgrid.Placement.max_centroid_error tech p)

let test_general_routes_and_extracts () =
  (* the router and extractor are ratio-agnostic: a segmented array goes
     through the whole flow *)
  let p = Ccplace.General.clustered ~counts:segmented in
  let layout = Ccroute.Layout.route tech p in
  (match Verify.Engine.check_layout layout with
   | [] -> ()
   | d :: _ ->
     Alcotest.failf "layout violation: %s"
       (Format.asprintf "%a" Diag.pp d));
  let par = Extract.Parasitics.extract layout in
  Alcotest.(check bool) "extraction sane" true
    (par.Extract.Parasitics.critical_elmore_fs > 0.
     && par.Extract.Parasitics.area > 0.)

let test_rejects_bad_counts () =
  Alcotest.(check bool) "empty" true
    (try ignore (Ccplace.General.interleaved ~counts:[||]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero count" true
    (try ignore (Ccplace.General.interleaved ~counts:[| 1; 0; 2 |]); false
     with Invalid_argument _ -> true)

let test_determinism () =
  let a = Ccplace.General.interleaved ~counts:segmented in
  let b = Ccplace.General.interleaved ~counts:segmented in
  Alcotest.(check bool) "same assign" true
    (a.Ccgrid.Placement.assign = b.Ccgrid.Placement.assign)

let test_clustered_msb_outside () =
  (* clustered order: small-index capacitors nearer the centre *)
  let counts = [| 2; 2; 4; 8; 16 |] in
  let p = Ccplace.General.clustered ~counts in
  let rows = p.Ccgrid.Placement.rows and cols = p.Ccgrid.Placement.cols in
  let avg_ring k =
    let cells = Ccgrid.Placement.cells_of p k in
    float_of_int
      (List.fold_left (fun a c -> a + Ccgrid.Cell.ring ~rows ~cols c) 0 cells)
    /. float_of_int (List.length cells)
  in
  Alcotest.(check bool) "C_0 inside C_4" true (avg_ring 0 < avg_ring 4)

let counts_arb =
  (* 2-6 capacitors, counts 1..12 *)
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map string_of_int l))
    QCheck.Gen.(list_size (int_range 2 6) (int_range 1 12))

let prop_general_always_valid =
  QCheck.Test.make ~name:"general placements valid for random ratios" ~count:80
    counts_arb
    (fun counts_list ->
       let counts = Array.of_list counts_list in
       List.for_all
         (fun place ->
            let p = place ~counts in
            Ccgrid.Placement.validate p = Ok ())
         [ Ccplace.General.interleaved; Ccplace.General.clustered ])

let prop_general_even_caps_centred =
  QCheck.Test.make ~name:"even-ratio caps exactly centred" ~count:60 counts_arb
    (fun counts_list ->
       let counts = Array.of_list counts_list in
       let p = Ccplace.General.interleaved ~counts in
       Array.for_all
         (fun ok -> ok)
         (Array.mapi
            (fun k n ->
               n mod 2 = 1 || Ccgrid.Placement.centroid_error tech p k < 1e-9)
            counts))

let () =
  Alcotest.run "general"
    [ ( "segmented",
        [ Alcotest.test_case "valid" `Quick test_segmented_valid_both_styles;
          Alcotest.test_case "even caps centred" `Quick test_even_ratio_caps_exactly_centred;
          Alcotest.test_case "odd caps near centre" `Quick test_odd_ratio_caps_near_centre;
          Alcotest.test_case "odd total" `Quick test_odd_total_gets_odd_grid;
          Alcotest.test_case "binary compat" `Quick test_binary_counts_match_dedicated_machinery;
          Alcotest.test_case "routes + extracts" `Quick test_general_routes_and_extracts;
          Alcotest.test_case "rejects bad counts" `Quick test_rejects_bad_counts;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "clustered order" `Quick test_clustered_msb_outside ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_general_always_valid; prop_general_even_caps_centred ] ) ]
