(* Tests for the placement algorithms of Sec. IV-A. *)

let tech = Tech.Process.finfet_12nm

let all_styles bits =
  Ccplace.Style.Spiral :: Ccplace.Style.Chessboard :: Ccplace.Style.Rowwise
  :: Ccplace.Style.block_family ~bits

(* Connected groups of capacitor [k]: the trunk connections it needs. *)
let groups_of p k =
  let groups = Ccroute.Group.of_placement p in
  groups.Ccroute.Group.cap_first.(k + 1) - groups.Ccroute.Group.cap_first.(k)

let check_valid p =
  match Ccgrid.Placement.validate p with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* every style, every bit count: well-formed and exactly common-centroid *)
let test_all_styles_valid () =
  for bits = 2 to 10 do
    List.iter
      (fun style ->
         let p = Ccplace.Style.place ~bits style in
         check_valid p;
         Alcotest.(check int) "bits" bits p.Ccgrid.Placement.bits)
      (all_styles bits)
  done

let test_all_styles_common_centroid () =
  for bits = 2 to 9 do
    List.iter
      (fun style ->
         let p = Ccplace.Style.place ~bits style in
         let err = Ccgrid.Placement.max_centroid_error tech p in
         if err > 1e-9 then
           Alcotest.failf "%s %d-bit centroid error %g"
             (Ccplace.Style.name style) bits err)
      (all_styles bits)
  done

let test_c0_c1_diagonally_opposite () =
  (* C_0 and C_1 are placed at mirrored cells for every style *)
  for bits = 2 to 9 do
    List.iter
      (fun style ->
         let p = Ccplace.Style.place ~bits style in
         if p.Ccgrid.Placement.unit_multiplier = 1 then begin
           match
             ( Ccgrid.Placement.cells_of p 0,
               Ccgrid.Placement.cells_of p 1 )
           with
           | [ c0 ], [ c1 ] ->
             let m =
               Ccgrid.Cell.mirror ~rows:p.Ccgrid.Placement.rows
                 ~cols:p.Ccgrid.Placement.cols c0
             in
             if not (Ccgrid.Cell.equal m c1) then
               Alcotest.failf "%s %d-bit: C_0/C_1 not mirrored"
                 (Ccplace.Style.name style) bits
           | _ -> Alcotest.fail "C_0/C_1 expected single cells"
         end)
      (all_styles bits)
  done

let test_determinism () =
  List.iter
    (fun style ->
       let a = Ccplace.Style.place ~bits:7 style in
       let b = Ccplace.Style.place ~bits:7 style in
       Alcotest.(check bool) (Ccplace.Style.name style) true
         (a.Ccgrid.Placement.assign = b.Ccgrid.Placement.assign))
    (all_styles 7)

(* --- spiral --- *)

let test_spiral_lsb_near_center () =
  let p = Ccplace.Spiral.place ~bits:8 in
  let rows = p.Ccgrid.Placement.rows and cols = p.Ccgrid.Placement.cols in
  let avg_ring k =
    let cells = Ccgrid.Placement.cells_of p k in
    let sum =
      List.fold_left (fun acc c -> acc + Ccgrid.Cell.ring ~rows ~cols c) 0 cells
    in
    float_of_int sum /. float_of_int (List.length cells)
  in
  (* the spiral walks outward: average ring index grows with the index *)
  Alcotest.(check bool) "C_2 nearer than C_8" true (avg_ring 2 < avg_ring 8);
  Alcotest.(check bool) "C_4 nearer than C_7" true (avg_ring 4 < avg_ring 7)

let test_spiral_msb_clustered () =
  let p = Ccplace.Spiral.place ~bits:8 in
  Alcotest.(check bool) "few C_8 groups" true
    (groups_of p 8 <= 4)

(* --- chessboard --- *)

let test_chessboard_msb_on_one_colour () =
  let p = Ccplace.Chessboard.place ~bits:6 in
  let cells = Ccgrid.Placement.cells_of p 6 in
  let parities =
    List.sort_uniq compare
      (List.map (fun (c : Ccgrid.Cell.t) -> (c.Ccgrid.Cell.row + c.Ccgrid.Cell.col) mod 2) cells)
  in
  Alcotest.(check int) "single colour" 1 (List.length parities)

let test_chessboard_no_adjacent_msb () =
  let p = Ccplace.Chessboard.place ~bits:8 in
  Alcotest.(check int) "C_8 singletons"
    p.Ccgrid.Placement.counts.(8)
    (groups_of p 8)

let test_chessboard_odd_bits_doubles () =
  List.iter
    (fun bits ->
       let p = Ccplace.Chessboard.place ~bits in
       Alcotest.(check int) "multiplier" 2 p.Ccgrid.Placement.unit_multiplier;
       Alcotest.(check int) "cells doubled"
         (2 * Ccgrid.Weights.total_units ~bits)
         (p.Ccgrid.Placement.rows * p.Ccgrid.Placement.cols))
    [ 3; 5; 7; 9 ]

let test_chessboard_even_bits_not_doubled () =
  let p = Ccplace.Chessboard.place ~bits:8 in
  Alcotest.(check int) "multiplier" 1 p.Ccgrid.Placement.unit_multiplier

let test_chessboard_rank_halves () =
  (* the first rank bucket is exactly one chessboard colour *)
  let rows = 8 and cols = 8 in
  let black, white =
    let cells = ref [] in
    for row = 0 to rows - 1 do
      for col = 0 to cols - 1 do
        cells := Ccgrid.Cell.make ~row ~col :: !cells
      done
    done;
    List.partition
      (fun c -> Ccplace.Chessboard.rank ~rows ~cols c < 0.5)
      !cells
  in
  Alcotest.(check int) "half" 32 (List.length black);
  Alcotest.(check int) "half" 32 (List.length white);
  List.iter
    (fun (c : Ccgrid.Cell.t) ->
       Alcotest.(check int) "colour" 0 ((c.Ccgrid.Cell.row + c.Ccgrid.Cell.col) mod 2))
    black

let test_chessboard_rank_range () =
  let rows = 16 and cols = 16 in
  for row = 0 to rows - 1 do
    for col = 0 to cols - 1 do
      let r = Ccplace.Chessboard.rank ~rows ~cols (Ccgrid.Cell.make ~row ~col) in
      Alcotest.(check bool) "in [0,1)" true (r >= 0. && r < 1.)
    done
  done

(* The float rank recursion and the stable sort on it that the integer
   key and the radix sort replaced, kept as their oracle: rank, then
   row-major position. *)
let rec reference_frac ~rows ~cols i j =
  if rows <= 1 && cols <= 1 then 0.
  else if cols = 1 then reference_frac ~rows:1 ~cols:rows j i
  else begin
    let p = (i + j) land 1 in
    let jp = (i + p) land 1 in
    let v = (j - jp) / 2 in
    let cols' = (cols - jp + 1) / 2 in
    (if p = 0 then 0. else 0.5) +. (0.5 *. reference_frac ~rows ~cols:cols' i v)
  end

let reference_rank ~rows ~cols (c : Ccgrid.Cell.t) =
  reference_frac ~rows ~cols c.Ccgrid.Cell.row c.Ccgrid.Cell.col

(* [reference_sort_by_rank ~ranks ~rows ~cols cells] with [ranks.(i)]
   the rank of the i-th of [cells] (recomputed when absent) *)
let reference_sort_by_rank ?ranks ~rows ~cols cells =
  let cells = Array.of_list cells in
  let ranks =
    match ranks with
    | Some r -> r
    | None -> Array.map (reference_rank ~rows ~cols) cells
  in
  let order = Array.init (Array.length cells) Fun.id in
  Array.stable_sort
    (fun a b ->
       match Float.compare ranks.(a) ranks.(b) with
       | 0 -> Ccgrid.Cell.compare cells.(a) cells.(b)
       | c -> c)
    order;
  Array.to_list (Array.map (fun i -> cells.(i)) order)

let grid_cells ~rows ~cols =
  List.init (rows * cols) (fun i ->
      Ccgrid.Cell.make ~row:(i / cols) ~col:(i mod cols))

(* Every grid 1..70 x 1..70 and the grids the placements build (Sizing
   of 2^N units at multipliers 1 and 2, Ccplace.General's).  On each:
   the integer key is the float rank * 2^D exactly (D = ceil(log2 rows)
   + ceil(log2 cols)), [rank] is the float recursion's value, and the
   radix sort of the row-major cells is the float-rank stable sort. *)
let test_chessboard_rank_oracle () =
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
  let rec clog2 n = if n <= 1 then 0 else 1 + clog2 ((n + 1) / 2) in
  List.iter
    (fun (rows, cols) ->
       let d = clog2 rows + clog2 cols in
       let cells = grid_cells ~rows ~cols in
       let ranks = Array.of_list (List.map (reference_rank ~rows ~cols) cells) in
       List.iteri
         (fun i c ->
            let key = Ccplace.Chessboard.rank_key ~rows ~cols c in
            let scaled = Float.ldexp ranks.(i) d in
            if not (Float.is_integer scaled && Float.to_int scaled = key) then
              Alcotest.failf "%dx%d cell %a: key %d, rank * 2^%d = %h" rows
                cols Ccgrid.Cell.pp c key d scaled;
            let rank = Ccplace.Chessboard.rank ~rows ~cols c in
            if not (Float.equal rank ranks.(i)) then
              Alcotest.failf "%dx%d cell %a: rank %h, recursion %h" rows cols
                Ccgrid.Cell.pp c rank ranks.(i))
         cells;
       if
         not
           (List.equal Ccgrid.Cell.equal
              (Ccplace.Chessboard.sort_by_rank ~rows ~cols cells)
              (reference_sort_by_rank ~ranks ~rows ~cols cells))
       then Alcotest.failf "rank order differs from the sort on %dx%d" rows cols)
    (List.concat
       (List.init 70 (fun r -> List.init 70 (fun c -> (r + 1, c + 1))))
     @ sizing @ general)

(* ties break row-major whatever the input order: shuffled grids and
   shuffled subsets (the block-chessboard core is one) *)
let test_chessboard_sort_shuffled () =
  let rng = Random.State.make [| 2024 |] in
  let shuffle l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  List.iter
    (fun (rows, cols) ->
       let cells = grid_cells ~rows ~cols in
       let subset = List.filter (fun _ -> Random.State.bool rng) cells in
       List.iter
         (fun cells ->
            if
              not
                (List.equal Ccgrid.Cell.equal
                   (Ccplace.Chessboard.sort_by_rank ~rows ~cols (shuffle cells))
                   (reference_sort_by_rank ~rows ~cols cells))
            then Alcotest.failf "shuffled %dx%d sorts differently" rows cols)
         [ cells; subset ])
    [ (8, 8); (16, 16); (23, 23); (7, 12); (1, 9); (9, 1); (32, 32); (46, 45) ]

(* --- block chessboard --- *)

let test_block_core_is_centered () =
  let p = Ccplace.Block_chess.place ~bits:6 ~core_bits:4 ~granularity:2 () in
  (* all of C_0..C_4 sit within the centre 4x4 of the 8x8 array *)
  for k = 0 to 4 do
    List.iter
      (fun (c : Ccgrid.Cell.t) ->
         Alcotest.(check bool)
           (Printf.sprintf "C_%d cell (%d,%d) in core" k c.Ccgrid.Cell.row c.Ccgrid.Cell.col)
           true
           (c.Ccgrid.Cell.row >= 2 && c.Ccgrid.Cell.row <= 5
            && c.Ccgrid.Cell.col >= 2 && c.Ccgrid.Cell.col <= 5))
      (Ccgrid.Placement.cells_of p k)
  done

let test_block_corridor_msb_only () =
  let p = Ccplace.Block_chess.place ~bits:6 ~core_bits:4 ~granularity:2 () in
  (* the outer corridor holds only C_5, C_6 (and dummies) *)
  for row = 0 to 7 do
    for col = 0 to 7 do
      let inside = row >= 2 && row <= 5 && col >= 2 && col <= 5 in
      if not inside then begin
        match Ccgrid.Placement.cap_at p (Ccgrid.Cell.make ~row ~col) with
        | Some k when k < 5 -> Alcotest.failf "C_%d leaked to corridor" k
        | Some _ | None -> ()
      end
    done
  done

let test_block_granularity_changes_clustering () =
  let runs g =
    let p = Ccplace.Block_chess.place ~bits:8 ~core_bits:6 ~granularity:g () in
    groups_of p 8
  in
  Alcotest.(check bool) "coarser blocks, fewer groups" true (runs 8 <= runs 1)

let test_block_rejects_bad_config () =
  Alcotest.(check bool) "core too big" true
    (try ignore (Ccplace.Block_chess.place ~bits:6 ~core_bits:6 ~granularity:2 ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "granularity 0" true
    (try ignore (Ccplace.Block_chess.place ~bits:6 ~core_bits:4 ~granularity:0 ()); false
     with Invalid_argument _ -> true)

let test_block_family_nonempty () =
  for bits = 3 to 10 do
    Alcotest.(check bool) "family" true
      (List.length (Ccplace.Style.block_family ~bits) >= 2)
  done

(* --- rowwise --- *)

let test_rowwise_moderate_dispersion () =
  let row = Ccplace.Rowwise.place ~bits:8 in
  let chess = Ccplace.Chessboard.place ~bits:8 in
  let spiral = Ccplace.Spiral.place ~bits:8 in
  let runs p = groups_of p 8 in
  Alcotest.(check bool) "more groups than spiral" true (runs row > runs spiral);
  Alcotest.(check bool) "fewer groups than chessboard" true (runs row < runs chess)

(* --- interleave --- *)

let test_interleave_schedule_counts () =
  let seq = Ccplace.Interleave.schedule [ ("a", 4); ("b", 2) ] in
  Alcotest.(check int) "length" 6 (List.length seq);
  Alcotest.(check int) "a count" 4
    (List.length (List.filter (( = ) "a") seq));
  Alcotest.(check int) "b count" 2
    (List.length (List.filter (( = ) "b") seq))

let test_interleave_even_spacing () =
  (* 2:1 -> no three consecutive identical items *)
  let seq = Ccplace.Interleave.schedule [ ("a", 8); ("b", 4) ] in
  let rec no_triple = function
    | a :: (b :: c :: _ as rest) -> not (a = b && b = c) && no_triple rest
    | [ _; _ ] | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "no aaa" true (no_triple seq)

let test_interleave_next_exhausts () =
  let items = [| ("x", 2); ("y", 1) |] in
  let taken = [| 2; 1 |] in
  Alcotest.(check bool) "exhausted" true
    (Ccplace.Interleave.next items taken = None)

let prop_interleave_counts =
  QCheck.Test.make ~name:"schedule preserves weights" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 5) (int_range 1 20))
    (fun weights ->
       let items = List.mapi (fun i w -> (i, w)) weights in
       let seq = Ccplace.Interleave.schedule items in
       List.for_all
         (fun (tag, w) -> List.length (List.filter (( = ) tag) seq) = w)
         items)

let prop_any_style_any_bits_valid =
  QCheck.Test.make ~name:"placement valid for random config" ~count:60
    QCheck.(pair (int_range 2 9) (int_range 0 3))
    (fun (bits, style_idx) ->
       let style =
         match style_idx with
         | 0 -> Ccplace.Style.Spiral
         | 1 -> Ccplace.Style.Chessboard
         | 2 -> Ccplace.Style.Rowwise
         | _ -> Ccplace.Style.block_default ~bits
       in
       let p = Ccplace.Style.place ~bits style in
       Ccgrid.Placement.validate p = Ok ()
       && Ccgrid.Placement.max_centroid_error tech p < 1e-9)

let () =
  Alcotest.run "ccplace"
    [ ( "all styles",
        [ Alcotest.test_case "valid" `Quick test_all_styles_valid;
          Alcotest.test_case "common centroid" `Quick test_all_styles_common_centroid;
          Alcotest.test_case "C0/C1 mirrored" `Quick test_c0_c1_diagonally_opposite;
          Alcotest.test_case "deterministic" `Quick test_determinism ] );
      ( "spiral",
        [ Alcotest.test_case "LSB near centre" `Quick test_spiral_lsb_near_center;
          Alcotest.test_case "MSB clustered" `Quick test_spiral_msb_clustered ] );
      ( "chessboard",
        [ Alcotest.test_case "MSB one colour" `Quick test_chessboard_msb_on_one_colour;
          Alcotest.test_case "no adjacent MSB" `Quick test_chessboard_no_adjacent_msb;
          Alcotest.test_case "odd doubles" `Quick test_chessboard_odd_bits_doubles;
          Alcotest.test_case "even not doubled" `Quick test_chessboard_even_bits_not_doubled;
          Alcotest.test_case "rank halves" `Quick test_chessboard_rank_halves;
          Alcotest.test_case "rank range" `Quick test_chessboard_rank_range;
          Alcotest.test_case "rank key and radix sort = float rank sort" `Slow
            test_chessboard_rank_oracle;
          Alcotest.test_case "shuffled ties row-major" `Quick
            test_chessboard_sort_shuffled ] );
      ( "block chessboard",
        [ Alcotest.test_case "core centred" `Quick test_block_core_is_centered;
          Alcotest.test_case "corridor MSB only" `Quick test_block_corridor_msb_only;
          Alcotest.test_case "granularity" `Quick test_block_granularity_changes_clustering;
          Alcotest.test_case "rejects bad config" `Quick test_block_rejects_bad_config;
          Alcotest.test_case "family nonempty" `Quick test_block_family_nonempty ] );
      ( "rowwise",
        [ Alcotest.test_case "moderate dispersion" `Quick test_rowwise_moderate_dispersion ] );
      ( "interleave",
        [ Alcotest.test_case "counts" `Quick test_interleave_schedule_counts;
          Alcotest.test_case "spacing" `Quick test_interleave_even_spacing;
          Alcotest.test_case "exhaustion" `Quick test_interleave_next_exhausts ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_interleave_counts; prop_any_style_any_bits_valid ] ) ]
