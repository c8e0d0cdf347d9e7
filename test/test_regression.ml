(* Regression pins: the constructive algorithms are deterministic, so key
   structural facts of canonical layouts are pinned exactly.  A failure
   here means the placement or router behaviour changed — update the pins
   deliberately if the change is intended. *)

let tech = Tech.Process.finfet_12nm

let spiral6 = lazy (Ccroute.Layout.route tech (Ccplace.Spiral.place ~bits:6))

let test_spiral6_group_structure () =
  let layout = Lazy.force spiral6 in
  let groups_of k =
    Array.length (Ccroute.Layout.net layout k).Ccroute.Layout.cn_groups
  in
  (* C_6 is the periphery: one connected component; C_2 is the innermost
     mirrored pair: two singletons *)
  Alcotest.(check int) "C_6 one group" 1 (groups_of 6);
  Alcotest.(check int) "C_2 two groups" 2 (groups_of 2);
  Alcotest.(check int) "total groups" 11
    (Ccroute.Group.count layout.Ccroute.Layout.groups)

let test_spiral6_trunks () =
  let layout = Lazy.force spiral6 in
  Array.iter
    (fun (net : Ccroute.Layout.capnet) ->
       let trunks = List.length net.Ccroute.Layout.cn_trunks in
       if net.Ccroute.Layout.cn_cap = 6 then
         Alcotest.(check int) "C_6 single short trunk" 1 trunks
       else
         Alcotest.(check bool) "at most 2 trunks" true (trunks <= 2))
    layout.Ccroute.Layout.nets

let test_spiral6_via_budget () =
  (* the headline: spiral via cuts stay in the paper's tens, not hundreds *)
  let layout =
    Ccroute.Layout.route tech
      ~p_of_cap:(Ccroute.Layout.msb_parallel ~bits:6 ~p:2)
      (Ccplace.Spiral.place ~bits:6)
  in
  let par = Extract.Parasitics.extract layout in
  Alcotest.(check int) "via cuts pinned" 62 par.Extract.Parasitics.total_via_cuts

let test_chessboard8_track_usage () =
  let layout = Ccroute.Layout.route tech (Ccplace.Chessboard.place ~bits:8) in
  let plan = layout.Ccroute.Layout.plan in
  Alcotest.(check int) "max tracks per channel" 4
    (Array.fold_left Int.max 0 plan.Ccroute.Plan.tracks_per_channel)

let test_placement_fingerprints () =
  (* cheap whole-placement fingerprint: sum over cells of id * position *)
  let fingerprint p =
    let acc = ref 0 in
    Array.iteri
      (fun r row ->
         Array.iteri
           (fun c id -> acc := !acc + ((id + 2) * ((r * 131) + c)))
           row)
      p.Ccgrid.Placement.assign;
    !acc
  in
  Alcotest.(check int) "spiral 8" 2281884
    (fingerprint (Ccplace.Spiral.place ~bits:8));
  Alcotest.(check int) "chessboard 8" 2282809
    (fingerprint (Ccplace.Chessboard.place ~bits:8));
  Alcotest.(check int) "rowwise 8" 2281099
    (fingerprint (Ccplace.Rowwise.place ~bits:8))

(* --- golden routing digests --- *)

(* One MD5 over everything placement and routing decide for a design:
   the placement's serial text, the groups (capacitor, cells, tree
   edges), the plan's routes in connection order (group id, channel,
   track, attach cell) and every wire, via and top-plate wire, floats
   printed exactly with %h. *)
let layout_digest (l : Ccroute.Layout.t) =
  let b = Buffer.create 65536 in
  let groups = l.groups in
  let cell i =
    let (c : Ccgrid.Cell.t) = Ccroute.Group.cell groups i in
    Printf.bprintf b "(%d,%d)" c.row c.col
  in
  Buffer.add_string b (Ccgrid.Serial.to_string l.placement);
  for g = 0 to Ccroute.Group.count groups - 1 do
    Printf.bprintf b "\ngroup %d C_%d:" g groups.cap.(g);
    for i = groups.first.(g) to groups.first.(g + 1) - 1 do
      cell groups.cells.(i)
    done;
    Buffer.add_string b " edges:";
    let e0 = Ccroute.Group.edge_first groups g in
    for i = 2 * e0 to (2 * (e0 + Ccroute.Group.edges groups g)) - 1 do
      cell groups.tree_edges.(i)
    done
  done;
  Array.iter
    (fun g ->
       Printf.bprintf b "\nroute %d ch %d track %d at " g l.plan.channel.(g)
         l.plan.track.(g);
       cell l.plan.attach.(g))
    l.plan.order;
  let kind : Ccroute.Layout.wire_kind -> string = function
    | Branch -> "branch"
    | Stub -> "stub"
    | Trunk -> "trunk"
    | Bridge -> "bridge"
    | Top -> "top"
  in
  let wire (w : Ccroute.Layout.wire) =
    Printf.bprintf b "\nwire C_%d %s %s (%h,%h)-(%h,%h) p%d" w.w_cap
      (kind w.w_kind)
      (Format.asprintf "%a" Tech.Layer.pp_name w.w_layer)
      w.w_ax w.w_ay w.w_bx w.w_by w.w_p
  in
  let wires ws =
    for i = 0 to Ccroute.Layout.Wires.length ws - 1 do
      wire (Ccroute.Layout.Wires.get ws i)
    done
  in
  wires l.wires;
  List.iter
    (fun (v : Ccroute.Layout.via) ->
       Printf.bprintf b "\nvia C_%d (%h,%h) p%d" v.v_cap v.v_x v.v_y v.v_p)
    l.vias;
  wires l.top_wires;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The designs the signoff_pnr and paper_tables benchmark workloads
   route: rowwise, chessboard, spiral and every block-chess granularity
   at 6-10 bits, and the four Table III styles at 12 bits, each routed
   with the flow's parallel-wire policy. *)
let golden_designs =
  List.concat_map
    (fun bits ->
       List.map
         (fun style -> (bits, style))
         (Ccplace.Style.[ Rowwise; Chessboard; Spiral ]
          @ Ccplace.Style.block_family ~bits))
    [ 6; 7; 8; 9; 10 ]
  @ List.map
    (fun style -> (12, style))
    Ccplace.Style.[ Rowwise; Chessboard; Spiral; block_default ~bits:12 ]

let golden_digests =
  [ ("rowwise 6-bit", "a2cd3112c4fbf8383eb5c6c238c4ba1d");
    ("chessboard 6-bit", "40c282ffb4d25fb3e9e868fe98847ac8");
    ("spiral 6-bit", "fc3035abeaa7a8bed80ce4a56c4b7b06");
    ("block-chess(core=4,g=1) 6-bit", "5fe252383c34b1eadf25cb347ef698cc");
    ("block-chess(core=4,g=2) 6-bit", "acbb5d9229d066183d5791377f4364ac");
    ("block-chess(core=4,g=4) 6-bit", "75718621ed64b859dba18d7c38ab2870");
    ("block-chess(core=4,g=8) 6-bit", "19568d4c80412ee7e5139a84d1562072");
    ("rowwise 7-bit", "4d03c8cd1756b94879867a2bfebdb3f1");
    ("chessboard 7-bit", "eb89cb5c19908f2890738a2776274861");
    ("spiral 7-bit", "a5e26f4e9cd57923669bb55c560e0dc1");
    ("block-chess(core=5,g=1) 7-bit", "89acbca061c1914d8bde3174ffc9479a");
    ("block-chess(core=5,g=2) 7-bit", "73db23ef46a2e90af7699774eae93ca2");
    ("block-chess(core=5,g=4) 7-bit", "2b6746f7730eef69bb100176bb47c66c");
    ("block-chess(core=5,g=8) 7-bit", "ecac0630a14af59370b232bc40e63ae9");
    ("rowwise 8-bit", "f53c25fa57dbdce07981f9ccd369511d");
    ("chessboard 8-bit", "82c8b7a39447773f66975e39d79ea81a");
    ("spiral 8-bit", "f03ee3388c69568ec58a38d61703b4a4");
    ("block-chess(core=6,g=1) 8-bit", "35490324af26f50b4cf7652a8f61143c");
    ("block-chess(core=6,g=2) 8-bit", "de218c7511a53f8b79dafdea2e6e3162");
    ("block-chess(core=6,g=4) 8-bit", "e8b4edcc5b3475198a38312b9f7defde");
    ("block-chess(core=6,g=8) 8-bit", "cc8d180273b65e0da0b224907e4542c6");
    ("rowwise 9-bit", "53d046b9bc420e8eae4f883cc03dca9f");
    ("chessboard 9-bit", "e3ed74608ad8f08dc416ab361dffecdf");
    ("spiral 9-bit", "171bb8069edaf84fc0ba870a1167caa5");
    ("block-chess(core=7,g=1) 9-bit", "4e3e4e8d1c164438cfb319903c01ce90");
    ("block-chess(core=7,g=2) 9-bit", "f429c173f28b485a4ba2629f5f2491a0");
    ("block-chess(core=7,g=4) 9-bit", "c88a2aafa696d8ccbe62046f2c55ac3c");
    ("block-chess(core=7,g=8) 9-bit", "846ab04ad837cb0e78c889cd6b93a1c2");
    ("rowwise 10-bit", "937ac6d076cb2e0c68269ef21bcacb23");
    ("chessboard 10-bit", "38e2e1f0b5b7858b3dac4f06c5e88499");
    ("spiral 10-bit", "42614191cfd9b101125a2fbfe466267c");
    ("block-chess(core=8,g=1) 10-bit", "a5016a88cc583f3b03b72a9d885fe773");
    ("block-chess(core=8,g=2) 10-bit", "14c3191def2ae3c8fe90f9bb9249d4a0");
    ("block-chess(core=8,g=4) 10-bit", "567646edd3595f5faee9513b84935fb1");
    ("block-chess(core=8,g=8) 10-bit", "198cecb2645c365a06cbb228b82c9cb8");
    ("rowwise 12-bit", "fc7a6448f550674e439296a7e212df46");
    ("chessboard 12-bit", "a614e3ac53ffe5511d7e2fa16446e812");
    ("spiral 12-bit", "300f2d7387cd2fd8372d119432e0830c");
    ("block-chess(core=10,g=2) 12-bit", "3ec213159777f390b7ee713dc74ffa3f") ]

(* The designs where the stub-planarity repair of [Plan.of_channels]
   changes the plan, besides block-chess(core=6,g=4) at 8 bits above:
   block-chess(core=11,g=2) at 13 bits re-attaches one connection,
   block-chess(core=13,g=2) at 15 bits re-attaches two, and rowwise at
   15 bits is the one shipped design whose cycle only a move to the
   other channel breaks.  Then the four Table III styles at 14 and 16
   bits, the widest layouts the router meets. *)
let repair_designs =
  Ccplace.Style.
    [ (13, Block_chess { core_bits = 11; granularity = 2 });
      (15, Rowwise);
      (15, Block_chess { core_bits = 13; granularity = 2 }) ]
  @ List.concat_map
    (fun bits ->
       List.map
         (fun style -> (bits, style))
         Ccplace.Style.[ Rowwise; Chessboard; Spiral; block_default ~bits ])
    [ 14; 16 ]

let repair_digests =
  [ ("block-chess(core=11,g=2) 13-bit", "fa8b351f953531c476e20bb8414871d1");
    ("rowwise 15-bit", "ae518993ee777087dd77114a41a18978");
    ("block-chess(core=13,g=2) 15-bit", "15e386b658fd66e1ee6350b1c3b0bc1e");
    ("rowwise 14-bit", "cdd8cc73eb64679b0bbe9137bd7c2a3c");
    ("chessboard 14-bit", "516468d1475a1f788190b97851cb05de");
    ("spiral 14-bit", "0e91101156fbccff070afc7052bcdab1");
    ("block-chess(core=12,g=2) 14-bit", "e5f4e85ec3228d8c7c33ed203b15eea1");
    ("rowwise 16-bit", "c6478d1141a6558636b8005a9c5969e4");
    ("chessboard 16-bit", "0da767fda9ec427883b068e8e4a9ea3e");
    ("spiral 16-bit", "285c0bbace76523ccce836a3fed1e8ff");
    ("block-chess(core=14,g=2) 16-bit", "ae1e480fe545a0bea5b22a34094ed1f3") ]

(* One MD5 over everything extraction reports for a design, floats
   printed exactly with %h: per capacitor the via cuts, bends,
   wirelength, via and wire resistance, wire capacitance and Elmore
   delay, then the array totals, the critical bit and the area. *)
let extraction_digest (l : Ccroute.Layout.t) =
  let p = Extract.Parasitics.extract l in
  let b = Buffer.create 4096 in
  Array.iter
    (fun (m : Extract.Parasitics.bit_metrics) ->
       Printf.bprintf b "C_%d %d %d %h %h %h %h %h\n" m.bm_cap m.bm_via_cuts
         m.bm_bends m.bm_wirelength m.bm_via_resistance m.bm_wire_resistance
         m.bm_wire_cap m.bm_elmore_fs)
    p.per_bit;
  Printf.bprintf b "%h %h %h %d %d %h %d %h %h" p.total_top_cap
    p.total_wire_cap p.total_coupling_cap p.total_via_cuts p.total_bends
    p.total_wirelength p.critical_bit p.critical_elmore_fs p.area;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Recorded before extraction bucketed its wires and vias per capacitor
   and built its own RC trees: every sum kept its order. *)
let extraction_digests =
  [ ("rowwise 6-bit", "f8f1690738f0232f2ede12b309b25671");
    ("chessboard 6-bit", "4ee4dc6cebe7fba8a15f0fd69c4ee75c");
    ("spiral 6-bit", "c8ad43cd0c0b7939cf4b718eb638c96f");
    ("block-chess(core=4,g=1) 6-bit", "5d25cd6d8b80f47666c0015eff4838dd");
    ("block-chess(core=4,g=2) 6-bit", "8fa247f0b5cd88704a77a054f16d55ad");
    ("block-chess(core=4,g=4) 6-bit", "d8c9a4cde13e4d582e723af24f2063ed");
    ("block-chess(core=4,g=8) 6-bit", "6ff5e4d8eb74eecdae51dcfa79b9c5b9");
    ("rowwise 7-bit", "5387b7fc5ba8ab42896af98f132e1e16");
    ("chessboard 7-bit", "3e1fbb3814a9cc2d61fa5eaf561db4c0");
    ("spiral 7-bit", "adcea48352811532622141f8d87c3748");
    ("block-chess(core=5,g=1) 7-bit", "9f640da15cbc9e4112e8f01c111f4ccf");
    ("block-chess(core=5,g=2) 7-bit", "7f7c61dc8dfbd1e57bb2c3df32423876");
    ("block-chess(core=5,g=4) 7-bit", "9ed0ad6a7e69349a22d66d946a7e8fc3");
    ("block-chess(core=5,g=8) 7-bit", "dfc1d765b6f0dacbb7da01c77e709e15");
    ("rowwise 8-bit", "4d2f85f081dd1c068b689cbd7dbe4380");
    ("chessboard 8-bit", "951214a93a609910c78bdd90a372594b");
    ("spiral 8-bit", "98188372d61a8c20a8016dcde34ca973");
    ("block-chess(core=6,g=1) 8-bit", "53646dfe3e94dd35b02e8b10fdf6e747");
    ("block-chess(core=6,g=2) 8-bit", "798583397d15cfdcdbdb2f477da7aaf9");
    ("block-chess(core=6,g=4) 8-bit", "e399e00c7a2a0f2ce2e355234f246de7");
    ("block-chess(core=6,g=8) 8-bit", "044a98c76d746870ccebd1501d31412a");
    ("rowwise 9-bit", "f7d963d02958325016b34f0a5be3dd91");
    ("chessboard 9-bit", "7009edf59904493e64d4d6d00df8c60a");
    ("spiral 9-bit", "f8a5160767ad4f6516576306634722d6");
    ("block-chess(core=7,g=1) 9-bit", "7ea80313b9c3b7f90732ccc4c6ee8c41");
    ("block-chess(core=7,g=2) 9-bit", "fab8b16b40f5b98456bc6a278d00c7d1");
    ("block-chess(core=7,g=4) 9-bit", "91d8400b75357723a5472ce113310e4f");
    ("block-chess(core=7,g=8) 9-bit", "6817731eae511288b1df3dc42603aa17");
    ("rowwise 10-bit", "a0d3c7ca3c899d4dcc248954b4f56f71");
    ("chessboard 10-bit", "41530f50f1e6bcfd5572dab5de00c4a1");
    ("spiral 10-bit", "fc4ab99717d2e5ce14e0f396c7bb0a25");
    ("block-chess(core=8,g=1) 10-bit", "494fca36f1585ee640d5c9fd640ce993");
    ("block-chess(core=8,g=2) 10-bit", "aa38b13aad468a63a883abafbfcc9526");
    ("block-chess(core=8,g=4) 10-bit", "c526f8ac7d257937c89a7382f31bbb9e");
    ("block-chess(core=8,g=8) 10-bit", "d1968e71507432b67fccbe7a8ef560a0");
    ("rowwise 12-bit", "d0b4d9de2c61ca8624e2aa1bdcced6f2");
    ("chessboard 12-bit", "a8b351fadd8b1f3374c99302c825637f");
    ("spiral 12-bit", "249feb6646f1a39954eb2962ce2e8652");
    ("block-chess(core=10,g=2) 12-bit", "eb746dfb56d1e45f4252aaf995c5a6c9") ]

let check_digests what digest designs expected () =
  let actual =
    List.map
      (fun (bits, style) ->
         let l =
           Ccroute.Layout.route tech
             ~p_of_cap:(Ccdac.Flow.default_parallel ~bits style)
             (Ccplace.Style.place ~bits style)
         in
         (Printf.sprintf "%s %d-bit" (Ccplace.Style.name style) bits,
          digest l))
      designs
  in
  Alcotest.(check (list (pair string string))) what expected actual

let routing = "placement, groups, plan, wires and vias"

let test_pipeline_determinism_through_serialisation () =
  (* save -> load -> route must reproduce the exact parasitics *)
  let p = Ccplace.Block_chess.place ~bits:7 ~granularity:4 () in
  let direct = Extract.Parasitics.extract (Ccroute.Layout.route tech p) in
  match Ccgrid.Serial.of_string (Ccgrid.Serial.to_string p) with
  | Error m -> Alcotest.failf "roundtrip failed: %s" m
  | Ok q ->
    let reloaded = Extract.Parasitics.extract (Ccroute.Layout.route tech q) in
    Alcotest.(check (float 1e-9)) "same critical delay"
      direct.Extract.Parasitics.critical_elmore_fs
      reloaded.Extract.Parasitics.critical_elmore_fs;
    Alcotest.(check int) "same vias" direct.Extract.Parasitics.total_via_cuts
      reloaded.Extract.Parasitics.total_via_cuts;
    Alcotest.(check (float 1e-9)) "same wirelength"
      direct.Extract.Parasitics.total_wirelength
      reloaded.Extract.Parasitics.total_wirelength

let () =
  Alcotest.run "regression"
    [ ( "pins",
        [ Alcotest.test_case "spiral groups" `Quick test_spiral6_group_structure;
          Alcotest.test_case "spiral trunks" `Quick test_spiral6_trunks;
          Alcotest.test_case "spiral vias" `Quick test_spiral6_via_budget;
          Alcotest.test_case "chessboard tracks" `Quick test_chessboard8_track_usage;
          Alcotest.test_case "fingerprints" `Quick test_placement_fingerprints;
          Alcotest.test_case "golden routing digests" `Slow
            (check_digests routing layout_digest golden_designs
               golden_digests);
          Alcotest.test_case "repair and wide routing digests" `Slow
            (check_digests routing layout_digest repair_designs
               repair_digests);
          Alcotest.test_case "golden extraction digests" `Slow
            (check_digests "per-capacitor and array metrics, exactly"
               extraction_digest golden_designs extraction_digests) ] );
      ( "pipeline",
        [ Alcotest.test_case "serialise determinism" `Quick
            test_pipeline_determinism_through_serialisation ] ) ]
