(* Tests for the common-centroid grid substrate. *)

let check_float = Alcotest.(check (float 1e-9))
let tech = Tech.Process.finfet_12nm

(* --- weights --- *)

let test_weights_counts () =
  let counts = Ccgrid.Weights.unit_counts ~bits:6 in
  Alcotest.(check (array int)) "6-bit" [| 1; 1; 2; 4; 8; 16; 32 |] counts

let test_weights_sum_is_pow2 () =
  for bits = 1 to 12 do
    let counts = Ccgrid.Weights.unit_counts ~bits in
    Alcotest.(check int)
      (Printf.sprintf "%d-bit sum" bits)
      (Ccgrid.Weights.total_units ~bits)
      (Array.fold_left ( + ) 0 counts)
  done

let test_weights_scale () =
  let doubled = Ccgrid.Weights.scale (Ccgrid.Weights.unit_counts ~bits:3) ~by:2 in
  Alcotest.(check (array int)) "doubled" [| 2; 2; 4; 8 |] doubled

let test_weights_bounds () =
  Alcotest.(check bool) "raises on 0" true
    (try ignore (Ccgrid.Weights.unit_counts ~bits:0); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "raises above max" true
    (try ignore (Ccgrid.Weights.unit_counts ~bits:(Ccgrid.Weights.max_bits + 1)); false
     with Invalid_argument _ -> true)

(* --- sizing (Eq. 17) --- *)

let test_sizing_even_bits_square () =
  List.iter
    (fun bits ->
       let s = Ccgrid.Sizing.compute ~total_units:(1 lsl bits) in
       let side = 1 lsl (bits / 2) in
       Alcotest.(check int) "rows" side s.Ccgrid.Sizing.rows;
       Alcotest.(check int) "cols" side s.Ccgrid.Sizing.cols;
       Alcotest.(check int) "no dummies" 0 s.Ccgrid.Sizing.dummies)
    [ 2; 4; 6; 8; 10 ]

let test_sizing_odd_bits () =
  (* 9-bit: 512 cells -> 23 x 23 with 17 dummies, Eq. 17 *)
  let s = Ccgrid.Sizing.compute ~total_units:512 in
  Alcotest.(check int) "rows" 23 s.Ccgrid.Sizing.rows;
  Alcotest.(check int) "cols" 23 s.Ccgrid.Sizing.cols;
  Alcotest.(check int) "dummies" 17 s.Ccgrid.Sizing.dummies

let test_sizing_covers () =
  for t = 1 to 300 do
    let s = Ccgrid.Sizing.compute ~total_units:t in
    Alcotest.(check bool) "covers" true
      (s.Ccgrid.Sizing.rows * s.Ccgrid.Sizing.cols >= t);
    Alcotest.(check int) "dummy arithmetic"
      ((s.Ccgrid.Sizing.rows * s.Ccgrid.Sizing.cols) - t)
      s.Ccgrid.Sizing.dummies
  done

(* --- cells --- *)

let test_cell_mirror_involution () =
  let c = Ccgrid.Cell.make ~row:2 ~col:5 in
  let m = Ccgrid.Cell.mirror ~rows:8 ~cols:8 c in
  Alcotest.(check bool) "involution" true
    (Ccgrid.Cell.equal c (Ccgrid.Cell.mirror ~rows:8 ~cols:8 m))

let test_cell_centered () =
  let u, v = Ccgrid.Cell.centered ~rows:8 ~cols:8 (Ccgrid.Cell.make ~row:0 ~col:0) in
  Alcotest.(check int) "u" (-7) u;
  Alcotest.(check int) "v" (-7) v;
  let u, v = Ccgrid.Cell.centered ~rows:3 ~cols:3 (Ccgrid.Cell.make ~row:1 ~col:1) in
  Alcotest.(check int) "center u" 0 u;
  Alcotest.(check int) "center v" 0 v

let test_cell_mirror_is_centered_negation () =
  let rows = 6 and cols = 7 in
  for row = 0 to rows - 1 do
    for col = 0 to cols - 1 do
      let c = Ccgrid.Cell.make ~row ~col in
      let m = Ccgrid.Cell.mirror ~rows ~cols c in
      let u, v = Ccgrid.Cell.centered ~rows ~cols c in
      let mu, mv = Ccgrid.Cell.centered ~rows ~cols m in
      Alcotest.(check int) "u neg" (-u) mu;
      Alcotest.(check int) "v neg" (-v) mv
    done
  done

let test_cell_adjacent () =
  let c = Ccgrid.Cell.make ~row:1 ~col:1 in
  Alcotest.(check bool) "right" true
    (Ccgrid.Cell.adjacent c (Ccgrid.Cell.make ~row:1 ~col:2));
  Alcotest.(check bool) "diagonal" false
    (Ccgrid.Cell.adjacent c (Ccgrid.Cell.make ~row:2 ~col:2));
  Alcotest.(check bool) "self" false (Ccgrid.Cell.adjacent c c)

let test_cell_neighbors_at_corner () =
  let ns = Ccgrid.Cell.neighbors ~rows:4 ~cols:4 (Ccgrid.Cell.make ~row:0 ~col:0) in
  Alcotest.(check int) "corner has 2" 2 (List.length ns)

let test_spiral_order_permutation () =
  let order = Ccgrid.Cell.spiral_order ~rows:5 ~cols:4 in
  Alcotest.(check int) "all cells once" 20
    (List.length (List.sort_uniq Ccgrid.Cell.compare order))

let test_spiral_order_ring_monotone () =
  let rows = 6 and cols = 6 in
  let order = Ccgrid.Cell.spiral_order ~rows ~cols in
  let rings = List.map (Ccgrid.Cell.ring ~rows ~cols) order in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "rings non-decreasing" true (non_decreasing rings)

(* The (ring, atan2 angle) stable sort the ring walk replaced, kept as
   its oracle. *)
let reference_spiral_order ~rows ~cols =
  let cells =
    Array.init (rows * cols) (fun i ->
        Ccgrid.Cell.make ~row:(i / cols) ~col:(i mod cols))
  in
  let key c =
    let u, v = Ccgrid.Cell.centered ~rows ~cols c in
    let angle = Float.atan2 (float_of_int v) (float_of_int u) in
    let angle = if angle < 0. then angle +. (2. *. Float.pi) else angle in
    (Ccgrid.Cell.ring ~rows ~cols c, angle)
  in
  let keys = Array.map key cells in
  let order = Array.init (Array.length cells) Fun.id in
  Array.stable_sort
    (fun a b ->
       let ring_a, angle_a = keys.(a) and ring_b, angle_b = keys.(b) in
       match Int.compare ring_a ring_b with
       | 0 -> Float.compare angle_a angle_b
       | c -> c)
    order;
  Array.to_list (Array.map (fun i -> cells.(i)) order)

(* Grids the placements build: Sec. IV-A1 sizing of 2^N units at unit
   multipliers 1 and 2, and the arbitrary-ratio grids of Ccplace.General
   (odd dimensions forced by a centre single). *)
let placement_grids () =
  let sizing =
    List.concat_map
      (fun m ->
         List.init 16 (fun i ->
             let s = Ccgrid.Sizing.compute ~total_units:(m lsl (i + 1)) in
             (s.Ccgrid.Sizing.rows, s.Ccgrid.Sizing.cols)))
      [ 1; 2 ]
  in
  let general =
    List.concat_map
      (fun counts ->
         List.map
           (fun (p : Ccgrid.Placement.t) ->
              (p.Ccgrid.Placement.rows, p.Ccgrid.Placement.cols))
           [ Ccplace.General.clustered ~counts;
             Ccplace.General.interleaved ~counts ])
      [ [| 1; 1; 2; 4; 8 |]; [| 1; 2; 3; 5; 7 |]; [| 1; 1; 2; 3; 5; 8; 13 |];
        [| 1; 1; 2; 4; 16; 16; 16 |]; [| 3; 5 |]; [| 1; 1; 1 |];
        [| 2; 3; 6; 11; 21; 40 |]; [| 1; 1; 2; 4; 8; 16; 32; 64; 128 |] ]
  in
  sizing @ general

let test_spiral_order_matches_sort () =
  let grids =
    List.concat
      (List.init 70 (fun r -> List.init 70 (fun c -> (r + 1, c + 1))))
    @ placement_grids ()
  in
  List.iter
    (fun (rows, cols) ->
       if
         not
           (List.equal Ccgrid.Cell.equal
              (Ccgrid.Cell.spiral_order ~rows ~cols)
              (reference_spiral_order ~rows ~cols))
       then Alcotest.failf "spiral order differs from the sort on %dx%d" rows cols)
    grids

(* --- placement --- *)

let spiral6 = Ccplace.Spiral.place ~bits:6

let test_placement_validate_ok () =
  match Ccgrid.Placement.validate spiral6 with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_placement_counts () =
  for k = 0 to 6 do
    Alcotest.(check int)
      (Printf.sprintf "C_%d cells" k)
      spiral6.Ccgrid.Placement.counts.(k)
      (List.length (Ccgrid.Placement.cells_of spiral6 k))
  done

let test_placement_cap_at () =
  let cells = Ccgrid.Placement.cells_of spiral6 6 in
  List.iter
    (fun c ->
       match Ccgrid.Placement.cap_at spiral6 c with
       | Some 6 -> ()
       | Some k -> Alcotest.failf "expected C_6, got C_%d" k
       | None -> Alcotest.fail "expected C_6, got dummy")
    cells

let test_placement_positions_symmetric () =
  (* the array centre is the coordinate origin *)
  let all = ref [] in
  for row = 0 to spiral6.Ccgrid.Placement.rows - 1 do
    for col = 0 to spiral6.Ccgrid.Placement.cols - 1 do
      all :=
        Ccgrid.Placement.position tech spiral6 (Ccgrid.Cell.make ~row ~col)
        :: !all
    done
  done;
  let c = Geom.Point.centroid !all in
  check_float "centroid x" 0. c.Geom.Point.x;
  check_float "centroid y" 0. c.Geom.Point.y

let test_placement_create_rejects_bad_counts () =
  let assign = [| [| 0; 1 |]; [| 2; 2 |] |] in
  Alcotest.(check bool) "count mismatch rejected" true
    (try
       ignore
         (Ccgrid.Placement.create ~bits:2 ~rows:2 ~cols:2 ~unit_multiplier:1
            ~counts:[| 1; 1; 2 |]
            ~assign:[| assign.(0); [| 2; 0 |] |]
            ~style_name:"bad");
       false
     with Invalid_argument _ -> true)

let test_placement_create_rejects_bad_id () =
  Alcotest.(check bool) "bad id rejected" true
    (try
       ignore
         (Ccgrid.Placement.create ~bits:2 ~rows:2 ~cols:2 ~unit_multiplier:1
            ~counts:[| 1; 1; 2 |]
            ~assign:[| [| 0; 9 |]; [| 2; 2 |] |]
            ~style_name:"bad");
       false
     with Invalid_argument _ -> true)

let test_placement_out_of_bounds () =
  Alcotest.check_raises "oob" (Invalid_argument "Placement: cell out of bounds")
    (fun () ->
       ignore (Ccgrid.Placement.cap_at spiral6 (Ccgrid.Cell.make ~row:99 ~col:0)))

let test_centroid_error_zero_for_cc () =
  check_float "spiral CC exact" 0.
    (Ccgrid.Placement.max_centroid_error tech spiral6)

(* --- dispersion --- *)

let test_dispersion_chessboard_spreads_msb () =
  let chess = Ccplace.Chessboard.place ~bits:6 in
  let s_chess = Ccgrid.Dispersion.spread tech chess 6 in
  Alcotest.(check bool) "MSB spread close to array" true (s_chess > 0.8)

(* Connected groups of capacitor [k] under 4-adjacency. *)
let groups_of p k =
  let groups = Ccroute.Group.of_placement p in
  groups.Ccroute.Group.cap_first.(k + 1) - groups.Ccroute.Group.cap_first.(k)

let test_adjacency_runs () =
  let chess = Ccplace.Chessboard.place ~bits:6 in
  (* chessboard colour class: no two cells of C_6 are 4-adjacent *)
  Alcotest.(check int) "C_6 fully dispersed"
    chess.Ccgrid.Placement.counts.(6)
    (groups_of chess 6);
  let spiral = spiral6 in
  Alcotest.(check bool) "spiral C_6 clustered" true
    (groups_of spiral 6 < 8)

let test_dispersion_single_cell_zero () =
  check_float "C_0 spread" 0. (Ccgrid.Dispersion.spread tech spiral6 0)

(* The one-pass grid sums against per-capacitor list folds over
   [cells_of], the way they were first written: every float must agree
   bit for bit. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let reference_rms points center =
  match points with
  | [] -> 0.
  | _ ->
    let sum2 =
      List.fold_left
        (fun acc p ->
           let d = Geom.Point.distance p center in
           acc +. (d *. d))
        0. points
    in
    sqrt (sum2 /. float_of_int (List.length points))

let reference_spread (p : Ccgrid.Placement.t) k =
  let all = ref [] in
  for row = 0 to p.rows - 1 do
    for col = 0 to p.cols - 1 do
      all := Ccgrid.Placement.position tech p (Ccgrid.Cell.make ~row ~col) :: !all
    done
  done;
  match List.map (Ccgrid.Placement.position tech p) (Ccgrid.Placement.cells_of p k) with
  | [] | [ _ ] -> 0.
  | points ->
    let denom = reference_rms !all Geom.Point.origin in
    if denom <= 0. then 0.
    else reference_rms points (Geom.Point.centroid points) /. denom

let sums_match_lists (p : Ccgrid.Placement.t) =
  let by_cap = Ccgrid.Placement.positions_by_cap tech p in
  let worst = ref 0. and ok = ref true in
  for k = 0 to p.bits do
    let points =
      List.map (Ccgrid.Placement.position tech p) (Ccgrid.Placement.cells_of p k)
    in
    ok :=
      !ok
      && List.equal (Geom.Point.equal ~eps:0.) points (Array.to_list by_cap.(k))
      && same_float (reference_spread p k) (Ccgrid.Dispersion.spread tech p k);
    if p.counts.(k) >= 2 then
      worst :=
        Float.max !worst
          (Geom.Point.distance (Geom.Point.centroid points) Geom.Point.origin)
  done;
  !ok && same_float !worst (Ccgrid.Placement.max_centroid_error tech p)

let test_one_pass_sums_match_lists () =
  for bits = 2 to 10 do
    List.iter
      (fun style ->
         Alcotest.(check bool)
           (Printf.sprintf "%s %d-bit" (Ccplace.Style.name style) bits)
           true
           (sums_match_lists (Ccplace.Style.place ~bits style)))
      (Ccplace.Style.[ Rowwise; Chessboard; Spiral ] @ Ccplace.Style.block_family ~bits)
  done

(* Common-centroid placements sum to the origin, so random assignments
   (1-12 rows and columns, dummies) are where rounding would show. *)
let prop_one_pass_sums_random =
  let gen =
    QCheck.Gen.(
      map3 (fun a b c -> (a, b, c)) (int_range 1 5) (int_range 1 12) (int_range 1 12)
      >>= fun (bits, rows, cols) ->
      map
        (fun ids ->
           let assign = Array.init rows (fun r -> Array.sub ids (r * cols) cols) in
           let counts = Array.make (bits + 1) 0 in
           Array.iter (fun id -> if id >= 0 then counts.(id) <- counts.(id) + 1) ids;
           Ccgrid.Placement.create ~bits ~rows ~cols ~unit_multiplier:1 ~counts ~assign
             ~style_name:"random")
        (array_repeat (rows * cols) (int_range (-1) bits)))
  in
  QCheck.Test.make ~name:"one-pass sums = list folds, random assignments" ~count:200
    (QCheck.make ~print:Ccgrid.Serial.to_string gen)
    sums_match_lists

(* --- render --- *)

let test_render_glyphs () =
  Alcotest.(check char) "0" '0' (Ccgrid.Render.glyph 0);
  Alcotest.(check char) "9" '9' (Ccgrid.Render.glyph 9);
  Alcotest.(check char) "A" 'A' (Ccgrid.Render.glyph 10);
  Alcotest.(check char) "dummy" '.' (Ccgrid.Render.glyph Ccgrid.Placement.dummy)

let test_render_dimensions () =
  let s = Ccgrid.Render.ascii spiral6 in
  let lines = String.split_on_char '\n' s in
  let non_empty = List.filter (fun l -> l <> "") lines in
  Alcotest.(check int) "rows" spiral6.Ccgrid.Placement.rows (List.length non_empty);
  List.iter
    (fun l ->
       Alcotest.(check int) "width" ((2 * spiral6.Ccgrid.Placement.cols) - 1)
         (String.length l))
    non_empty

let test_render_highlight () =
  let s = Ccgrid.Render.ascii_highlight spiral6 ~cap:6 in
  let count_char ch str =
    String.fold_left (fun acc c -> if c = ch then acc + 1 else acc) 0 str
  in
  Alcotest.(check int) "32 highlighted" 32 (count_char '6' s)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  m = 0 || scan 0

let test_render_legend () =
  let s = Ccgrid.Render.legend spiral6 in
  Alcotest.(check bool) "mentions MSB count" true (contains s "6:32")

(* --- properties --- *)

let prop_mirror_in_bounds =
  QCheck.Test.make ~name:"mirror stays in bounds" ~count:300
    QCheck.(quad (int_range 1 40) (int_range 1 40) small_nat small_nat)
    (fun (rows, cols, row, col) ->
       QCheck.assume (row < rows && col < cols);
       let c = Ccgrid.Cell.make ~row ~col in
       Ccgrid.Cell.in_bounds ~rows ~cols (Ccgrid.Cell.mirror ~rows ~cols c))

let prop_sizing_near_square =
  QCheck.Test.make ~name:"sizing near square" ~count:200
    QCheck.(int_range 1 4000)
    (fun t ->
       let s = Ccgrid.Sizing.compute ~total_units:t in
       s.Ccgrid.Sizing.rows >= s.Ccgrid.Sizing.cols
       && s.Ccgrid.Sizing.rows - s.Ccgrid.Sizing.cols
          <= Int.max 2 (s.Ccgrid.Sizing.rows / 2))

let () =
  Alcotest.run "ccgrid"
    [ ( "weights",
        [ Alcotest.test_case "counts" `Quick test_weights_counts;
          Alcotest.test_case "sum = 2^N" `Quick test_weights_sum_is_pow2;
          Alcotest.test_case "scale" `Quick test_weights_scale;
          Alcotest.test_case "bounds" `Quick test_weights_bounds ] );
      ( "sizing",
        [ Alcotest.test_case "even bits square" `Quick test_sizing_even_bits_square;
          Alcotest.test_case "odd bits" `Quick test_sizing_odd_bits;
          Alcotest.test_case "covers" `Quick test_sizing_covers ] );
      ( "cell",
        [ Alcotest.test_case "mirror involution" `Quick test_cell_mirror_involution;
          Alcotest.test_case "centered" `Quick test_cell_centered;
          Alcotest.test_case "mirror = negation" `Quick test_cell_mirror_is_centered_negation;
          Alcotest.test_case "adjacent" `Quick test_cell_adjacent;
          Alcotest.test_case "corner neighbors" `Quick test_cell_neighbors_at_corner;
          Alcotest.test_case "spiral permutation" `Quick test_spiral_order_permutation;
          Alcotest.test_case "spiral ring monotone" `Quick test_spiral_order_ring_monotone;
          Alcotest.test_case "spiral walk = atan2 sort" `Slow test_spiral_order_matches_sort ] );
      ( "placement",
        [ Alcotest.test_case "validate" `Quick test_placement_validate_ok;
          Alcotest.test_case "counts" `Quick test_placement_counts;
          Alcotest.test_case "cap_at" `Quick test_placement_cap_at;
          Alcotest.test_case "positions symmetric" `Quick test_placement_positions_symmetric;
          Alcotest.test_case "rejects bad counts" `Quick test_placement_create_rejects_bad_counts;
          Alcotest.test_case "rejects bad id" `Quick test_placement_create_rejects_bad_id;
          Alcotest.test_case "out of bounds" `Quick test_placement_out_of_bounds;
          Alcotest.test_case "centroid error" `Quick test_centroid_error_zero_for_cc ] );
      ( "dispersion",
        [ Alcotest.test_case "chessboard MSB" `Quick test_dispersion_chessboard_spreads_msb;
          Alcotest.test_case "adjacency runs" `Quick test_adjacency_runs;
          Alcotest.test_case "single cell" `Quick test_dispersion_single_cell_zero;
          Alcotest.test_case "one-pass sums = list folds" `Quick
            test_one_pass_sums_match_lists ] );
      ( "render",
        [ Alcotest.test_case "glyphs" `Quick test_render_glyphs;
          Alcotest.test_case "dimensions" `Quick test_render_dimensions;
          Alcotest.test_case "highlight" `Quick test_render_highlight;
          Alcotest.test_case "legend" `Quick test_render_legend ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_mirror_in_bounds; prop_sizing_near_square; prop_one_pass_sums_random ] ) ]
