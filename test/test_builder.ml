(* Direct tests for the mirrored-assignment placement builder. *)

open Ccgrid

let counts3 = Weights.unit_counts ~bits:3 (* [|1;1;2;4|], total 8 *)

let fresh () =
  Ccplace.Builder.make ~bits:3 ~rows:3 ~cols:3 ~unit_multiplier:1
    ~counts:counts3

let test_make_rejects_small_grid () =
  Alcotest.(check bool) "grid too small" true
    (try
       ignore
         (Ccplace.Builder.make ~bits:3 ~rows:2 ~cols:2 ~unit_multiplier:1
            ~counts:counts3);
       false
     with Invalid_argument _ -> true)

let test_make_rejects_bad_counts_length () =
  Alcotest.(check bool) "length" true
    (try
       ignore
         (Ccplace.Builder.make ~bits:4 ~rows:4 ~cols:4 ~unit_multiplier:1
            ~counts:counts3);
       false
     with Invalid_argument _ -> true)

let test_assign_pair_mirrors () =
  let b = fresh () in
  let c = Cell.make ~row:0 ~col:0 in
  Ccplace.Builder.assign_pair b c 3;
  Alcotest.(check bool) "cell taken" false (Ccplace.Builder.is_free b c);
  Alcotest.(check bool) "mirror taken" false
    (Ccplace.Builder.is_free b (Ccplace.Builder.mirror b c));
  Alcotest.(check int) "budget decremented" 2 (Ccplace.Builder.remaining b 3)

let test_assign_pair_rejects_occupied () =
  let b = fresh () in
  let c = Cell.make ~row:0 ~col:0 in
  Ccplace.Builder.assign_pair b c 3;
  Alcotest.(check bool) "occupied" true
    (try Ccplace.Builder.assign_pair b c 2; false
     with Invalid_argument _ -> true)

let test_assign_pair_rejects_self_mirror () =
  let b = fresh () in
  let center = Cell.make ~row:1 ~col:1 in
  Alcotest.(check bool) "self mirror" true
    (try Ccplace.Builder.assign_pair b center 3; false
     with Invalid_argument _ -> true)

let test_assign_pair_rejects_exhausted_budget () =
  let b = fresh () in
  (* C_2 has 2 cells: one pair exhausts it *)
  Ccplace.Builder.assign_pair b (Cell.make ~row:0 ~col:0) 2;
  Alcotest.(check bool) "budget" true
    (try Ccplace.Builder.assign_pair b (Cell.make ~row:0 ~col:1) 2; false
     with Invalid_argument _ -> true)

let test_split_pair () =
  let b = fresh () in
  let c = Cell.make ~row:0 ~col:1 in
  Ccplace.Builder.assign_split_pair b c ~at:1 ~at_mirror:0;
  Alcotest.(check int) "C_1 done" 0 (Ccplace.Builder.remaining b 1);
  Alcotest.(check int) "C_0 done" 0 (Ccplace.Builder.remaining b 0)

let test_center_single () =
  let b = fresh () in
  Ccplace.Builder.assign_center_single b 0;
  Alcotest.(check bool) "centre taken" false
    (Ccplace.Builder.is_free b (Cell.make ~row:1 ~col:1));
  Alcotest.(check int) "C_0 done" 0 (Ccplace.Builder.remaining b 0)

let test_center_single_rejects_even_grid () =
  let b =
    Ccplace.Builder.make ~bits:2 ~rows:2 ~cols:2 ~unit_multiplier:1
      ~counts:(Weights.unit_counts ~bits:2)
  in
  Alcotest.(check bool) "no centre" true
    (try Ccplace.Builder.assign_center_single b 0; false
     with Invalid_argument _ -> true)

let test_reserve_center_dummy_idempotent () =
  let b = fresh () in
  Ccplace.Builder.reserve_center_dummy b;
  Ccplace.Builder.reserve_center_dummy b;
  Alcotest.(check bool) "centre reserved" false
    (Ccplace.Builder.is_free b (Cell.make ~row:1 ~col:1))

let test_finish_requires_full_budget () =
  let b = fresh () in
  Alcotest.(check bool) "unfinished rejected" true
    (try ignore (Ccplace.Builder.finish b ~style_name:"partial"); false
     with Invalid_argument _ -> true)

let test_finish_fills_dummies () =
  let b = fresh () in
  (* 3x3 grid, 8 cells of capacitors, 1 dummy at centre *)
  Ccplace.Builder.reserve_center_dummy b;
  Ccplace.Builder.assign_split_pair b (Cell.make ~row:0 ~col:0) ~at:1 ~at_mirror:0;
  Ccplace.Builder.assign_pair b (Cell.make ~row:0 ~col:1) 2;
  Ccplace.Builder.assign_pair b (Cell.make ~row:0 ~col:2) 3;
  Ccplace.Builder.assign_pair b (Cell.make ~row:1 ~col:0) 3;
  let p = Ccplace.Builder.finish b ~style_name:"manual" in
  (match Placement.validate p with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  Alcotest.(check int) "one dummy" 1 (List.length (Placement.dummy_cells p));
  Alcotest.(check string) "style" "manual" p.Placement.style_name

let test_first_free_in_order () =
  let b = fresh () in
  Ccplace.Builder.assign_pair b (Cell.make ~row:0 ~col:0) 3;
  let order =
    [ Cell.make ~row:0 ~col:0; Cell.make ~row:0 ~col:1; Cell.make ~row:0 ~col:2 ]
  in
  (match Ccplace.Builder.first_free_in b (Ccplace.Builder.cursor order) with
   | Some c -> Alcotest.(check bool) "skips taken" true
                 (Cell.equal c (Cell.make ~row:0 ~col:1))
   | None -> Alcotest.fail "expected a free cell")

let test_first_free_in_none () =
  let b = fresh () in
  Alcotest.(check bool) "empty order" true
    (Ccplace.Builder.first_free_in b (Ccplace.Builder.cursor []) = None)

let () =
  Alcotest.run "builder"
    [ ( "construction",
        [ Alcotest.test_case "small grid" `Quick test_make_rejects_small_grid;
          Alcotest.test_case "bad counts" `Quick test_make_rejects_bad_counts_length ] );
      ( "assignment",
        [ Alcotest.test_case "pair mirrors" `Quick test_assign_pair_mirrors;
          Alcotest.test_case "occupied" `Quick test_assign_pair_rejects_occupied;
          Alcotest.test_case "self mirror" `Quick test_assign_pair_rejects_self_mirror;
          Alcotest.test_case "budget" `Quick test_assign_pair_rejects_exhausted_budget;
          Alcotest.test_case "split pair" `Quick test_split_pair;
          Alcotest.test_case "centre single" `Quick test_center_single;
          Alcotest.test_case "centre on even grid" `Quick test_center_single_rejects_even_grid;
          Alcotest.test_case "reserve dummy" `Quick test_reserve_center_dummy_idempotent ] );
      ( "finish",
        [ Alcotest.test_case "requires budget" `Quick test_finish_requires_full_budget;
          Alcotest.test_case "fills dummies" `Quick test_finish_fills_dummies;
          Alcotest.test_case "first free" `Quick test_first_free_in_order;
          Alcotest.test_case "first free none" `Quick test_first_free_in_none ] ) ]
