(* Tests for the verification engine: the rule registry, the stage
   checkers and their negative paths (deliberately corrupted placements,
   layouts, tech files and style configs, with every route rule pinned on
   a corrupted layout), the [assert_clean] gate, and SVG export. *)

let tech = Tech.Process.finfet_12nm

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec walk i = i + m <= n && (String.sub s i m = sub || walk (i + 1)) in
  walk 0

let layout_of ?p_of_cap style bits =
  let p = Ccplace.Style.place ~bits style in
  Ccroute.Layout.route tech ?p_of_cap p

let spiral6 = layout_of Ccplace.Style.Spiral 6

(* [mutate_wires f l] rebuilds [l]'s bottom-plate wire table from [f]
   applied to its wires in table order; [mutate_top_wires] likewise for
   the top plate. *)
let mutate_wires f (l : Ccroute.Layout.t) =
  { l with
    Ccroute.Layout.wires =
      Ccroute.Layout.Wires.of_list
        (f (Ccroute.Layout.Wires.to_list l.Ccroute.Layout.wires)) }

let mutate_top_wires f (l : Ccroute.Layout.t) =
  { l with
    Ccroute.Layout.top_wires =
      Ccroute.Layout.Wires.of_list
        (f (Ccroute.Layout.Wires.to_list l.Ccroute.Layout.top_wires)) }

(* deep-copy a placement so tests can corrupt it in place *)
let clone (p : Ccgrid.Placement.t) =
  { p with
    Ccgrid.Placement.assign = Array.map Array.copy p.Ccgrid.Placement.assign;
    counts = Array.copy p.Ccgrid.Placement.counts }

let cell_of p k = List.hd (Ccgrid.Placement.cells_of p k)

let set (p : Ccgrid.Placement.t) (c : Ccgrid.Cell.t) id =
  p.Ccgrid.Placement.assign.(c.Ccgrid.Cell.row).(c.Ccgrid.Cell.col) <- id

let fired diags = Diag.rule_ids diags

let rule_and_detail (d : Diag.t) = (d.Diag.rule.Diag.id, d.Diag.detail)

let check_fired what expected diags =
  Alcotest.(check (list string)) what expected (fired diags)

(* --- registry --- *)

let test_registry_unique_sorted () =
  let ids = Diag.ids Verify.Registry.all in
  Alcotest.(check (list string)) "sorted and unique"
    (List.sort_uniq String.compare ids)
    ids;
  Alcotest.(check bool) "non-trivial catalogue" true (List.length ids >= 20)

let test_registry_find () =
  Alcotest.(check bool) "finds place/centroid" true
    (Diag.find Verify.Registry.all "place/centroid" <> None);
  Alcotest.(check bool) "unknown id" true
    (Diag.find Verify.Registry.all "place/no-such-rule" = None)

let test_registry_docs () =
  List.iter
    (fun (r : Diag.rule) ->
       Alcotest.(check bool) (r.Diag.id ^ " documented") true
         (String.length r.Diag.doc > 10))
    Verify.Registry.all.Diag.rules

(* docs/VERIFY.md's id scheme: a rule's family (the id before '/') names
   its category *)
let test_registry_categories () =
  let categories =
    [ ("place", "placement"); ("route", "routing"); ("tech", "tech");
      ("style", "style"); ("lvs", "lvs") ]
  in
  let rules = Verify.Registry.all.Diag.rules in
  List.iter
    (fun (family, _) ->
       Alcotest.(check bool)
         (family ^ " rules present") true
         (List.exists (fun (r : Diag.rule) -> Diag.family r.Diag.id = family)
            rules))
    categories;
  List.iter
    (fun (r : Diag.rule) ->
       Alcotest.(check (option string))
         (r.Diag.id ^ " category")
         (List.assoc_opt (Diag.family r.Diag.id) categories)
         (Some (Verify.Report.category r)))
    rules

(* --- clean paths --- *)

let test_lint_all_styles_clean () =
  for bits = 4 to 10 do
    List.iter
      (fun style ->
         let parallel = Ccdac.Flow.default_parallel ~bits style in
         match Verify.Engine.lint ~parallel ~tech ~bits style with
         | [] -> ()
         | diags ->
           Alcotest.failf "%s %d-bit: %s" (Ccplace.Style.name style) bits
             (Verify.Report.text diags))
      (Ccplace.Style.Spiral :: Ccplace.Style.Chessboard :: Ccplace.Style.Rowwise
       :: Ccplace.Style.block_family ~bits)
  done

let test_builtin_techs_clean () =
  Alcotest.(check (list string)) "finfet" []
    (fired (Verify.Engine.check_tech Tech.Process.finfet_12nm));
  Alcotest.(check (list string)) "bulk" []
    (fired (Verify.Engine.check_tech Tech.Process.bulk_legacy))

(* --- corrupted placements --- *)

let spiral5 = Ccplace.Style.place ~bits:5 Ccplace.Style.Spiral
let spiral6p = Ccplace.Style.place ~bits:6 Ccplace.Style.Spiral

let test_bad_cell_count () =
  let p = clone spiral6p in
  set p (cell_of p 3) 2;
  check_fired "reassigned cell"
    [ "place/cell-count"; "place/centroid"; "place/mirror-symmetry" ]
    (Verify.Engine.check_placement tech p)

let test_bad_counts_array () =
  let p = clone spiral6p in
  p.Ccgrid.Placement.counts.(2) <- p.Ccgrid.Placement.counts.(2) + 1;
  check_fired "corrupted counts"
    [ "place/binary-weights"; "place/cell-count" ]
    (Verify.Engine.check_placement tech p)

let test_bad_grid_coverage () =
  let p = clone spiral5 in
  (match Ccgrid.Placement.dummy_cells p with
   | [] -> Alcotest.fail "expected dummies at 5 bits"
   | d :: _ -> set p d 99);
  check_fired "hole in the grid" [ "place/grid-coverage" ]
    (Verify.Engine.check_placement tech p)

let test_bad_centroid () =
  let p = clone spiral5 in
  let c = cell_of p 2 in
  (match Ccgrid.Placement.dummy_cells p with
   | [] -> Alcotest.fail "expected dummies at 5 bits"
   | d :: _ ->
     set p d 2;
     set p c Ccgrid.Placement.dummy);
  check_fired "off-centre capacitor"
    [ "place/centroid"; "place/mirror-symmetry" ]
    (Verify.Engine.check_placement tech p)

let test_bad_lsb_pair () =
  let p = clone spiral6p in
  let a = cell_of p 0 and b = cell_of p 2 in
  set p a 2;
  set p b 0;
  check_fired "split pair broken"
    [ "place/centroid"; "place/lsb-pair-centroid"; "place/mirror-symmetry" ]
    (Verify.Engine.check_placement tech p)

let test_bad_structure () =
  let p = { (clone spiral6p) with Ccgrid.Placement.counts = [| 1; 1 |] } in
  check_fired "broken record" [ "place/well-formed" ]
    (Verify.Engine.check_placement tech p)

let test_bad_multiplier () =
  let p = { (clone spiral6p) with Ccgrid.Placement.unit_multiplier = 3 } in
  check_fired "wrong multiplier" [ "place/binary-weights" ]
    (Verify.Engine.check_placement tech p)

let test_dispersion_bound () =
  let diags =
    Verify.Engine.check_placement ~dispersion_bound:0.5 tech spiral6p
  in
  check_fired "tight bound" [ "place/dispersion" ] diags;
  Alcotest.(check bool) "warning only, passes gate" true
    (not (Diag.fails diags));
  Alcotest.(check bool) "werror promotes" true
    (Diag.fails ~werror:true diags)

(* --- corrupted tech --- *)

let test_bad_tech_resistance () =
  check_fired "zero via resistance" [ "tech/positive-resistance" ]
    (Verify.Engine.check_tech { tech with Tech.Process.via_resistance = 0. })

let test_bad_tech_capacitance () =
  check_fired "negative unit cap" [ "tech/positive-capacitance" ]
    (Verify.Engine.check_tech { tech with Tech.Process.unit_cap = -1. })

let test_bad_tech_stack () =
  check_fired "reversed stack" [ "tech/layer-stack" ]
    (Verify.Engine.check_tech
       { tech with Tech.Process.stack = List.rev tech.Tech.Process.stack })

let test_bad_tech_geometry () =
  check_fired "zero wire pitch" [ "tech/geometry" ]
    (Verify.Engine.check_tech { tech with Tech.Process.wire_pitch = 0. })

(* each of the four lengths the router sums, a tenth of a nanometre off
   (1770.4 nm cell pitch: every column centre off the 0.5 nm grid), or
   within float rounding of a whole nanometre *)
let test_bad_tech_grid () =
  let off = [ ("wire pitch", { tech with Tech.Process.wire_pitch = 0.0643 });
              ("cell width", { tech with Tech.Process.cell_width = 1.7004 });
              ("cell height", { tech with Tech.Process.cell_height = 1.7004 });
              ("cell spacing", { tech with Tech.Process.cell_spacing = 0.0701 }) ]
  in
  List.iter
    (fun (what, t) ->
       let diags = Verify.Engine.check_tech t in
       check_fired what [ "tech/grid" ] diags;
       Alcotest.(check bool) (what ^ " named") true
         (String.starts_with ~prefix:what (List.hd diags).Diag.detail))
    off;
  check_fired "5e-7 um past a nanometre" [ "tech/grid" ]
    (Verify.Engine.check_tech
       { tech with Tech.Process.cell_width = 1.7 +. 5e-7 });
  check_fired "sums of decimal lengths" []
    (Verify.Engine.check_tech
       { tech with Tech.Process.cell_width = 1.6 +. 0.1;
                   cell_spacing = 0.01 +. 0.06 })

let test_bad_tech_statistics () =
  check_fired "rho_u out of range" [ "tech/statistics" ]
    (Verify.Engine.check_tech { tech with Tech.Process.rho_u = 1.5 })

(* --- bad style configs --- *)

let test_bad_style_core_bits () =
  check_fired "core too small" [ "style/block-core-bits" ]
    (Verify.Engine.check_style ~bits:6
       (Ccplace.Style.Block_chess { core_bits = 0; granularity = 2 }))

let test_bad_style_granularity () =
  check_fired "zero granularity" [ "style/block-granularity" ]
    (Verify.Engine.check_style ~bits:6
       (Ccplace.Style.Block_chess { core_bits = 4; granularity = 0 }))

let test_bad_style_bits () =
  check_fired "bits out of range" [ "style/bits-range" ]
    (Verify.Engine.check_style ~bits:20 Ccplace.Style.Spiral)

let test_unswept_granularity () =
  let diags =
    Verify.Engine.check_style ~bits:6
      (Ccplace.Style.Block_chess { core_bits = 4; granularity = 3 })
  in
  check_fired "unswept granularity" [ "style/block-granularity-unswept" ] diags;
  Alcotest.(check bool) "warning only" true (not (Diag.fails diags))

(* The default configuration meets every style rule at every size,
   including 2 bits, where granularity 2 is not swept. *)
let test_block_default_clean () =
  for bits = 2 to 16 do
    match Verify.Engine.check_style ~bits (Ccplace.Style.block_default ~bits) with
    | [] -> ()
    | d :: _ ->
      Alcotest.failf "%d-bit %s: %s %s" bits
        (Ccplace.Style.name (Ccplace.Style.block_default ~bits))
        d.Diag.rule.Diag.id d.Diag.detail
  done

(* --- corrupted layouts (through the registry) --- *)

let test_bad_layout_parallel () =
  let bad_via = { Ccroute.Layout.v_cap = 6; v_x = 1.; v_y = 1.; v_p = 3 } in
  let corrupted =
    { spiral6 with Ccroute.Layout.vias = bad_via :: spiral6.Ccroute.Layout.vias }
  in
  check_fired "inconsistent via bundle" [ "route/parallel-consistency" ]
    (Verify.Engine.check_layout corrupted)

let test_bad_layout_outline () =
  let bad_wire =
    { Ccroute.Layout.w_cap = 3; w_kind = Ccroute.Layout.Stub;
      w_layer = Tech.Layer.M1; w_ax = -5.; w_ay = 1.; w_bx = 1.; w_by = 1.;
      w_p = 1 }
  in
  let corrupted = mutate_wires (List.cons bad_wire) spiral6 in
  check_fired "escaping wire" [ "route/wire-in-outline" ]
    (Verify.Engine.check_layout corrupted)

let test_bad_layout_parallel_plan () =
  let p_of_cap = Array.copy spiral6.Ccroute.Layout.p_of_cap in
  p_of_cap.(6) <- 0;
  let corrupted = { spiral6 with Ccroute.Layout.p_of_cap } in
  check_fired "zero parallel count"
    [ "route/parallel-consistency"; "route/parallel-positive" ]
    (Verify.Engine.check_layout corrupted)

let test_bad_layout_top_plate () =
  let corrupted = mutate_top_wires (fun _ -> []) spiral6 in
  check_fired "missing top plate" [ "route/top-plate" ]
    (Verify.Engine.check_layout corrupted)

(* [with_net l k f] replaces capacitor [k]'s routed net by [f] of it *)
let with_net (l : Ccroute.Layout.t) k f =
  let nets = Array.copy l.Ccroute.Layout.nets in
  nets.(k) <- f nets.(k);
  { l with Ccroute.Layout.nets }

(* Corrupted layouts on which the route checks used to raise
   (Invalid_argument from an index or from Tech.Parallel.bundle_width):
   each is now reported under a rule id, and no exception escapes. *)
let layout_diagnostics what l =
  match Verify.Engine.check_layout l with
  | diags -> List.map rule_and_detail diags
  | exception e ->
    Alcotest.failf "%s: check_layout raised %s" what (Printexc.to_string e)

let test_bad_layout_unplanned_via () =
  let k = Array.length spiral6.Ccroute.Layout.p_of_cap in
  let via = { Ccroute.Layout.v_cap = k; v_x = 0.; v_y = 0.; v_p = 1 } in
  Alcotest.(check (list (pair string string)))
    "driver-row via of C_7"
    [ ("route/parallel-consistency",
       "C_7 via names no capacitor of the plan (C_0..C_6)") ]
    (layout_diagnostics "via"
       { spiral6 with
         Ccroute.Layout.vias = spiral6.Ccroute.Layout.vias @ [ via ] })

let test_bad_layout_unplanned_wire () =
  let k = Array.length spiral6.Ccroute.Layout.p_of_cap in
  let corrupted =
    mutate_wires
      (function
        | w :: rest -> { w with Ccroute.Layout.w_cap = k } :: rest
        | [] -> Alcotest.fail "spiral6 has no wires")
      spiral6
  in
  Alcotest.(check (list (pair string string)))
    "first wire on C_7"
    [ ("route/parallel-consistency",
       "C_7 wire names no capacitor of the plan (C_0..C_6)") ]
    (layout_diagnostics "wire" corrupted)

let test_bad_layout_unplanned_trunk () =
  let k = Array.length spiral6.Ccroute.Layout.p_of_cap in
  let corrupted =
    with_net spiral6 6 (fun n ->
        match n.Ccroute.Layout.cn_trunks with
        | tk :: rest ->
          { n with
            Ccroute.Layout.cn_trunks = { tk with Ccroute.Layout.tk_cap = k } :: rest }
        | [] -> Alcotest.fail "C_6 has no trunk")
  in
  Alcotest.(check (list (pair string string)))
    "C_6 trunk relabelled C_7"
    [ ("route/parallel-consistency",
       "C_7 trunk names no capacitor of the plan (C_0..C_6)") ]
    (layout_diagnostics "trunk" corrupted)

let test_bad_layout_zero_parallel_shared_channel () =
  (* C_8's trunk shares a channel: its width is skipped, the count is
     reported *)
  let l = layout_of Ccplace.Style.Chessboard 8 in
  let p_of_cap = Array.copy l.Ccroute.Layout.p_of_cap in
  p_of_cap.(8) <- 0;
  let diags =
    layout_diagnostics "p = 0" { l with Ccroute.Layout.p_of_cap }
  in
  Alcotest.(check (list string))
    "rules"
    [ "route/parallel-consistency"; "route/parallel-positive" ]
    (List.sort_uniq String.compare (List.map fst diags));
  Alcotest.(check bool) "no track-separation diagnostic" true
    (not (List.mem_assoc "route/track-separation" diags))

(* The 16x16 8-bit mirror-pair label grid of ROADMAP item 1: in channel
   15, rows 3 and 9 each carry a stub of C_8 from column 14 and one of
   C_6 or C_7 from column 15, each reaching past the other's trunk.  It
   passes every other rule, and LVS joins the three nets. *)
let stub_short () =
  match Ccgrid.Serial.load ~path:"stub_short_8bit.cc" with
  | Ok p -> Ccroute.Layout.route tech p
  | Error msg -> Alcotest.fail msg

(* One corrupted 6-bit spiral per route rule that no other case fires
   (and, for the stub rule, the grid above): the rules it fires, its
   diagnostic count and the details it must carry, byte for byte. *)
let test_bad_layout_each_rule () =
  let open Ccroute.Layout in
  let l = spiral6 in
  let tk = List.hd l.nets.(3).cn_trunks in
  let cases =
    [ ( "stubs meet",
        stub_short (),
        2,
        [ ( "route/stub-separation",
            "channel 15 row 3: stubs of C_6 (32.246 to 33.707 um) and C_8 \
             (31.297 to 32.758 um) meet" );
          ( "route/stub-separation",
            "channel 15 row 9: stubs of C_7 (32.630 to 33.707 um) and C_8 \
             (31.297 to 32.758 um) meet" ) ] );
      ( "via escapes",
        { l with vias = { v_cap = 3; v_x = -5.; v_y = 1.; v_p = 1 } :: l.vias },
        1,
        [ ("route/via-in-outline", "net C_3 via (-5.00,1.00) escapes") ] );
      ( "trunk off its channel",
        with_net l 3 (fun n ->
            { n with
              cn_trunks = { tk with tk_x = tk.tk_x +. 1000. } :: List.tl n.cn_trunks }),
        1,
        [ ( "route/trunk-in-channel",
            "C_3 trunk x=1003.988 outside channel 2 [3.796, 4.052]" ) ] );
      ( "trunks collide",
        with_net l 3 (fun n ->
            { n with cn_trunks = { tk with tk_x = tk.tk_x +. 1e-3 } :: n.cn_trunks }),
        1,
        [ ( "route/track-separation",
            "channel 2: trunks of C_3 and C_3 0.001 um apart, need 0.064" ) ] );
      ( "net without trunks",
        with_net l 2 (fun n -> { n with cn_trunks = [] }),
        1,
        [ ("route/net-routed", "C_2 has no trunk") ] );
      ( "group dropped",
        with_net l 4 (fun n ->
            { n with
              cn_groups = Array.sub n.cn_groups 1 (Array.length n.cn_groups - 1) }),
        1,
        [ ("route/net-coverage", "C_4 groups cover 4 of 8 cells") ] );
      ( "vertical bridge",
        mutate_wires
          (List.cons
             { w_cap = 3; w_kind = Bridge; w_layer = Tech.Layer.M1; w_ax = 1.;
               w_ay = 1.; w_bx = 1.; w_by = 5.; w_p = 1 })
          l,
        1,
        [ ("route/reserved-direction", "C_3 bridge wire violates direction") ] );
      ( "col_x short",
        { l with col_x = Array.sub l.col_x 0 7 },
        1,
        [ ("route/lattice", "col_x holds 7 centres for 8 placement columns") ] );
      ( "col_x long",
        { l with col_x = Array.append l.col_x [| 20. |] },
        1,
        [ ("route/lattice", "col_x holds 9 centres for 8 placement columns") ] );
      ( "row_y short",
        { l with row_y = Array.sub l.row_y 0 7 },
        1,
        [ ("route/lattice", "row_y holds 7 centres for 8 placement rows") ] );
      ( "row_y long",
        { l with row_y = Array.append l.row_y [| 20. |] },
        1,
        [ ("route/lattice", "row_y holds 9 centres for 8 placement rows") ] );
      ( "zero width",
        { l with width = 0. },
        115,
        [ ("route/extent", "routed block is 0 x 14.672 um");
          ("route/via-in-outline", "net C_0 via (8.30,0.00) escapes");
          ( "route/wire-in-outline",
            "net C_-2 wire (1.01,1.40)-(1.01,13.79) escapes 0x14.672" ) ] ) ]
  in
  List.iter
    (fun (what, corrupted, count, pinned) ->
       let diags = Verify.Engine.check_layout corrupted in
       check_fired what
         (List.sort_uniq String.compare (List.map fst pinned))
         diags;
       Alcotest.(check int) (what ^ ": count") count (List.length diags);
       Alcotest.(check bool) (what ^ ": no loc") true
         (List.for_all (fun (d : Diag.t) -> d.Diag.loc = "") diags);
       List.iter
         (fun (rule, detail) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s %S" what rule detail)
              true
              (List.mem (rule, detail) (List.map rule_and_detail diags)))
         pinned)
    cases

(* --- the flow gate --- *)

let test_flow_rejects_corrupted () =
  let p = clone spiral6p in
  let c = cell_of p 2 in
  (* move one C_2 cell to its row neighbour's dummy-free grid? no — swap
     with a dummy is impossible at 6 bits (no dummies); swap two caps *)
  let d = cell_of p 3 in
  set p c 3;
  set p d 2;
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Ccdac.Flow.run_placement p);
       false
     with Verify.Engine.Rejected _ -> true);
  (* opting out still analyses it *)
  let r = Ccdac.Flow.run_placement ~verify:false p in
  Alcotest.(check bool) "opt-out analyses" true (r.Ccdac.Flow.f3db_mhz > 0.)

let test_flow_rejected_payload () =
  let p = clone spiral6p in
  set p (cell_of p 3) 2;
  match Ccdac.Flow.run_placement p with
  | _ -> Alcotest.fail "expected rejection"
  | exception Verify.Engine.Rejected { what; diagnostics } ->
    Alcotest.(check bool) "names artifact" true
      (String.length what > 0);
    Alcotest.(check bool) "carries errors" true (Diag.errors diagnostics <> [])

(* --- engine helpers --- *)

let test_gate () =
  Alcotest.(check bool) "clean gate" true (not (Diag.fails []));
  let p = clone spiral6p in
  set p (cell_of p 3) 2;
  let diags = Verify.Engine.check_placement tech p in
  Alcotest.(check bool) "error fails the gate" true (Diag.fails diags)

let test_report_text_and_json () =
  let p = clone spiral6p in
  set p (cell_of p 3) 2;
  let diags = Verify.Engine.check_placement tech p in
  let text = Verify.Report.text diags in
  let json = Verify.Report.json ~label:"corrupted \"spiral\"" diags in
  Alcotest.(check bool) "text has rule id" true
    (contains text "place/cell-count");
  Alcotest.(check bool) "json has version" true
    (contains json "\"version\": 1");
  Alcotest.(check bool) "json escapes label" true
    (contains json "corrupted \\\"spiral\\\"");
  Alcotest.(check bool) "json lists rule" true
    (contains json "\"rule\": \"place/cell-count\"")

let test_diagnostic_order () =
  (* one severity and no loc, as every route check reports: (rule id,
     detail) order *)
  let d rule detail = Diag.make rule detail in
  let a = Verify.Route_rules.r_net_coverage
  and b = Verify.Route_rules.r_net_routed in
  Alcotest.(check (list (pair string string)))
    "sorted by rule then detail"
    [ ("route/net-coverage", "a"); ("route/net-coverage", "z");
      ("route/net-routed", "1"); ("route/net-routed", "2") ]
    (List.map rule_and_detail
       (Diag.sort [ d b "2"; d a "z"; d b "1"; d a "a" ]));
  Alcotest.(check int) "equal diagnostics compare 0" 0
    (Diag.compare (d a "x") (d a "x"));
  Alcotest.(check bool) "rule dominates detail" true
    (Diag.compare (d a "z") (d b "a") < 0)

(* --- check: the route rules through Verify.Engine.check_layout --- *)

let test_all_styles_clean () =
  for bits = 2 to 9 do
    List.iter
      (fun style ->
         let layout =
           layout_of ~p_of_cap:(Ccdac.Flow.default_parallel ~bits style) style
             bits
         in
         match Verify.Engine.check_layout layout with
         | [] -> ()
         | d :: _ ->
           Alcotest.failf "%s %d-bit: %s" (Ccplace.Style.name style) bits
             (Format.asprintf "%a" Diag.pp d))
      (Ccplace.Style.Spiral :: Ccplace.Style.Chessboard :: Ccplace.Style.Rowwise
       :: Ccplace.Style.block_family ~bits)
  done

let test_assert_clean_passes () =
  Verify.Engine.assert_clean (Verify.Engine.check_layout spiral6)

let test_detects_corrupted_parallel () =
  (* forge a layout with an inconsistent via bundle *)
  let bad_via =
    { Ccroute.Layout.v_cap = 6; v_x = 1.; v_y = 1.; v_p = 3 }
  in
  let corrupted =
    { spiral6 with Ccroute.Layout.vias = bad_via :: spiral6.Ccroute.Layout.vias }
  in
  Alcotest.(check bool) "parallel-consistency caught" true
    (List.mem "route/parallel-consistency"
       (fired (Verify.Engine.check_layout corrupted)))

let test_detects_escaping_wire () =
  let bad_wire =
    { Ccroute.Layout.w_cap = 3; w_kind = Ccroute.Layout.Stub;
      w_layer = Tech.Layer.M1; w_ax = -5.; w_ay = 1.; w_bx = 1.; w_by = 1.;
      w_p = 1 }
  in
  let corrupted = mutate_wires (List.cons bad_wire) spiral6 in
  Alcotest.(check bool) "wire-in-outline caught" true
    (List.mem "route/wire-in-outline"
       (fired (Verify.Engine.check_layout corrupted)))

let test_run_sorted_deterministic () =
  (* two rules corrupted at once, the C_2 wire ahead of the C_3 one: the
     output must come back sorted by rule id, then detail *)
  let bad_via = { Ccroute.Layout.v_cap = 6; v_x = 1.; v_y = 1.; v_p = 3 } in
  let escaping cap x =
    { Ccroute.Layout.w_cap = cap; w_kind = Ccroute.Layout.Stub;
      w_layer = Tech.Layer.M1; w_ax = x; w_ay = 1.; w_bx = 1.; w_by = 1.;
      w_p = 1 }
  in
  let corrupted =
    { (mutate_wires
         (fun ws -> escaping 2 (-7.) :: escaping 3 (-5.) :: ws)
         spiral6)
      with
      Ccroute.Layout.vias = bad_via :: spiral6.Ccroute.Layout.vias }
  in
  let diags = Verify.Engine.check_layout corrupted in
  let found = List.map rule_and_detail diags in
  Alcotest.(check (list (pair string string))) "(rule id, detail) sorted"
    (List.sort compare found) found;
  check_fired "both rules" [ "route/parallel-consistency"; "route/wire-in-outline" ]
    diags

let test_assert_clean_reports_totals () =
  let bad_via = { Ccroute.Layout.v_cap = 6; v_x = 1.; v_y = 1.; v_p = 3 } in
  let corrupted =
    { spiral6 with
      Ccroute.Layout.vias =
        bad_via :: bad_via :: spiral6.Ccroute.Layout.vias }
  in
  match
    Verify.Engine.assert_clean ~what:"corrupted spiral"
      (Verify.Engine.check_layout corrupted)
  with
  | () -> Alcotest.fail "expected Verify.Engine.Rejected"
  | exception Verify.Engine.Rejected { what; diagnostics } ->
    Alcotest.(check string) "names artifact" "corrupted spiral" what;
    Alcotest.(check (list (pair string string)))
      "both diagnostics"
      [ ("route/parallel-consistency", "C_6 via has p=3, plan says 1");
        ("route/parallel-consistency", "C_6 via has p=3, plan says 1") ]
      (List.map rule_and_detail diagnostics);
    Alcotest.(check string) "total count" "2 errors"
      (Verify.Report.summary_line diagnostics)

(* --- svg --- *)

let test_svg_well_formed () =
  let svg = Ccroute.Svg.render spiral6 in
  Alcotest.(check bool) "opens" true (contains svg "<svg xmlns");
  Alcotest.(check bool) "closes" true (contains svg "</svg>");
  Alcotest.(check bool) "has cells" true (contains svg "<rect");
  Alcotest.(check bool) "has wires" true (contains svg "<line");
  Alcotest.(check bool) "has vias" true (contains svg "<circle");
  Alcotest.(check bool) "caption" true (contains svg "spiral 6-bit")

let test_svg_cell_count () =
  let svg = Ccroute.Svg.render spiral6 in
  let count sub =
    let rec walk i acc =
      if i + String.length sub > String.length svg then acc
      else if String.sub svg i (String.length sub) = sub then
        walk (i + 1) (acc + 1)
      else walk (i + 1) acc
    in
    walk 0 0
  in
  (* one rect per cell plus the background *)
  Alcotest.(check int) "rects" (64 + 1) (count "<rect")

let test_svg_hide_top () =
  let with_top = Ccroute.Svg.render ~show_top:true spiral6 in
  let without = Ccroute.Svg.render ~show_top:false spiral6 in
  Alcotest.(check bool) "fewer lines without top plate" true
    (String.length without < String.length with_top)

let test_svg_write_roundtrip () =
  let path = Filename.temp_file "ccdac" ".svg" in
  Ccroute.Svg.write spiral6 ~path;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "non-empty file" true (len > 1000)

let () =
  Alcotest.run "verify"
    [ ( "registry",
        [ Alcotest.test_case "unique sorted ids" `Quick test_registry_unique_sorted;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "docs" `Quick test_registry_docs;
          Alcotest.test_case "categories" `Quick test_registry_categories ] );
      ( "clean",
        [ Alcotest.test_case "lint all styles" `Slow test_lint_all_styles_clean;
          Alcotest.test_case "builtin techs" `Quick test_builtin_techs_clean ] );
      ( "bad placement",
        [ Alcotest.test_case "cell count" `Quick test_bad_cell_count;
          Alcotest.test_case "counts array" `Quick test_bad_counts_array;
          Alcotest.test_case "grid coverage" `Quick test_bad_grid_coverage;
          Alcotest.test_case "centroid" `Quick test_bad_centroid;
          Alcotest.test_case "lsb pair" `Quick test_bad_lsb_pair;
          Alcotest.test_case "structure" `Quick test_bad_structure;
          Alcotest.test_case "multiplier" `Quick test_bad_multiplier;
          Alcotest.test_case "dispersion bound" `Quick test_dispersion_bound ] );
      ( "bad tech",
        [ Alcotest.test_case "resistance" `Quick test_bad_tech_resistance;
          Alcotest.test_case "capacitance" `Quick test_bad_tech_capacitance;
          Alcotest.test_case "stack" `Quick test_bad_tech_stack;
          Alcotest.test_case "geometry" `Quick test_bad_tech_geometry;
          Alcotest.test_case "grid" `Quick test_bad_tech_grid;
          Alcotest.test_case "statistics" `Quick test_bad_tech_statistics ] );
      ( "bad style",
        [ Alcotest.test_case "core bits" `Quick test_bad_style_core_bits;
          Alcotest.test_case "granularity" `Quick test_bad_style_granularity;
          Alcotest.test_case "bits range" `Quick test_bad_style_bits;
          Alcotest.test_case "unswept" `Quick test_unswept_granularity;
          Alcotest.test_case "block default clean" `Quick
            test_block_default_clean ] );
      ( "bad layout",
        [ Alcotest.test_case "parallel via" `Quick test_bad_layout_parallel;
          Alcotest.test_case "outline" `Quick test_bad_layout_outline;
          Alcotest.test_case "parallel plan" `Quick test_bad_layout_parallel_plan;
          Alcotest.test_case "unplanned via" `Quick test_bad_layout_unplanned_via;
          Alcotest.test_case "unplanned wire" `Quick test_bad_layout_unplanned_wire;
          Alcotest.test_case "unplanned trunk" `Quick test_bad_layout_unplanned_trunk;
          Alcotest.test_case "zero parallel, shared channel" `Quick
            test_bad_layout_zero_parallel_shared_channel;
          Alcotest.test_case "top plate" `Quick test_bad_layout_top_plate;
          Alcotest.test_case "each route rule" `Quick test_bad_layout_each_rule ] );
      ( "flow gate",
        [ Alcotest.test_case "rejects corrupted" `Quick test_flow_rejects_corrupted;
          Alcotest.test_case "payload" `Quick test_flow_rejected_payload ] );
      ( "engine",
        [ Alcotest.test_case "gate" `Quick test_gate;
          Alcotest.test_case "reports" `Quick test_report_text_and_json;
          Alcotest.test_case "diagnostic order" `Quick test_diagnostic_order ] );
      ( "check",
        [ Alcotest.test_case "all styles clean" `Slow test_all_styles_clean;
          Alcotest.test_case "assert_clean" `Quick test_assert_clean_passes;
          Alcotest.test_case "bad parallel" `Quick test_detects_corrupted_parallel;
          Alcotest.test_case "escaping wire" `Quick test_detects_escaping_wire;
          Alcotest.test_case "sorted run" `Quick test_run_sorted_deterministic;
          Alcotest.test_case "assert totals" `Quick test_assert_clean_reports_totals ] );
      ( "svg",
        [ Alcotest.test_case "well-formed" `Quick test_svg_well_formed;
          Alcotest.test_case "cell count" `Quick test_svg_cell_count;
          Alcotest.test_case "hide top" `Quick test_svg_hide_top;
          Alcotest.test_case "write" `Quick test_svg_write_roundtrip ] ) ]
