open Ccgrid

let style_name = "spiral"

let place ~bits =
  let counts = Weights.unit_counts ~bits in
  let total = Weights.total_units ~bits in
  let { Sizing.rows; cols; dummies } = Sizing.compute ~total_units:total in
  let b =
    Builder.make ~bits ~rows ~cols ~unit_multiplier:1 ~counts
  in
  (* An odd number of dummies forces one onto the self-mirror centre cell,
     keeping the free set mirror-symmetric for the pair discipline. *)
  if dummies mod 2 = 1 then Builder.reserve_center_dummy b;
  let order = Builder.cursor (Cell.spiral_order ~rows ~cols) in
  (* C_0 and C_1: innermost free mirror pair, diagonally opposite. *)
  (match Builder.first_free_in b order with
   | None -> invalid_arg "Spiral.place: no free cell for C_0/C_1"
   | Some c -> Builder.assign_split_pair b c ~at:0 ~at_mirror:1);
  (* C_2 .. C_N: mirrored pairs at the first empty spiral locations. *)
  for k = 2 to bits do
    while Builder.remaining b k > 0 do
      match Builder.first_free_in b order with
      | None -> invalid_arg "Spiral.place: ran out of cells"
      | Some c -> Builder.assign_pair b c k
    done
  done;
  Builder.finish b ~style_name
