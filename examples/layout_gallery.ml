(* Layout gallery: the ASCII counterparts of the paper's Figs. 2, 3, 4
   and 5 — placements of every style, the connected-group structure the
   router sees, block-chessboard granularities, and the routing-track
   comparison between [7] and the spiral.

   Run with: dune exec examples/layout_gallery.exe *)

let tech = Tech.Process.finfet_12nm

let banner title =
  Printf.printf "\n=== %s ===\n" title

let show_placement title p =
  banner title;
  print_string (Ccgrid.Render.ascii p);
  Printf.printf "legend: %s   (. = dummy)\n" (Ccgrid.Render.legend p)

(* Fig. 2: 6-bit placements of all four styles *)
let fig2 () =
  show_placement "Fig. 2a: 6-bit spiral" (Ccplace.Spiral.place ~bits:6);
  show_placement "Fig. 2b: 6-bit chessboard [7]" (Ccplace.Chessboard.place ~bits:6);
  show_placement "Fig. 2c: 6-bit block chessboard, coarse (g=4)"
    (Ccplace.Block_chess.place ~bits:6 ~core_bits:4 ~granularity:4 ());
  show_placement "Fig. 2d: 6-bit block chessboard, fine (g=1)"
    (Ccplace.Block_chess.place ~bits:6 ~core_bits:4 ~granularity:1 ())

(* Fig. 3: connected capacitor groups of the 6-bit spiral placement *)
let fig3 () =
  banner "Fig. 3: connected capacitor groups (6-bit spiral)";
  let p = Ccplace.Spiral.place ~bits:6 in
  let groups = Ccroute.Group.of_placement p in
  for cap = 2 to 6 do
    (* a capacitor's group ids are contiguous *)
    let lo = groups.Ccroute.Group.cap_first.(cap) in
    let gs = List.init (groups.Ccroute.Group.cap_first.(cap + 1) - lo) (( + ) lo) in
    Printf.printf "C_%d: %d connected group(s): %s\n" cap (List.length gs)
      (String.concat ", "
         (List.map
            (fun g ->
               Printf.sprintf "%d cells cols[%d-%d] rows[%d-%d]"
                 (Ccroute.Group.size groups g) groups.Ccroute.Group.col_lo.(g)
                 groups.Ccroute.Group.col_hi.(g) (Ccroute.Group.row_lo groups g)
                 (Ccroute.Group.row_hi groups g))
            gs))
  done;
  print_newline ();
  print_endline "C_6 highlighted (one connected ring, one short trunk, vias only";
  print_endline "at the input connection - Sec. V):";
  print_string (Ccgrid.Render.ascii_highlight p ~cap:6)

(* Fig. 4: 8-bit block chessboards at several granularities *)
let fig4 () =
  List.iter
    (fun g ->
       show_placement
         (Printf.sprintf "Fig. 4: 8-bit block chessboard, g=%d" g)
         (Ccplace.Block_chess.place ~bits:8 ~granularity:g ()))
    [ 1; 2; 4; 8 ]

(* Fig. 5: routing-track comparison, 8-bit, [7] vs spiral *)
let fig5 () =
  banner "Fig. 5: channel/track usage, 8-bit";
  let report name style =
    let p = Ccplace.Style.place ~bits:8 style in
    let layout = Ccroute.Layout.route tech p in
    let plan = layout.Ccroute.Layout.plan in
    let max_tracks =
      Array.fold_left Int.max 0 plan.Ccroute.Plan.tracks_per_channel
    in
    let par = Extract.Parasitics.extract layout in
    Printf.printf
      "%-14s max tracks/channel %d, total tracks %d, wirelength %.0f um, C^BB %.2f fF\n"
      name max_tracks (Ccroute.Plan.total_tracks plan)
      par.Extract.Parasitics.total_wirelength
      par.Extract.Parasitics.total_coupling_cap
  in
  report "chessboard [7]" Ccplace.Style.Chessboard;
  report "spiral" Ccplace.Style.Spiral;
  print_endline "\nHigh wirelength for [7] is inevitable: cells are spread for";
  print_endline "high dispersion (paper, Fig. 5 caption)."

let () =
  fig2 ();
  fig3 ();
  fig4 ();
  fig5 ()
