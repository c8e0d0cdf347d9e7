open Ccgrid

let style_name = "chessboard"

(* Hierarchical parity rank.  Level 1 splits the grid by chessboard colour
   (i+j mod 2); the same-colour cells form a lattice that is re-indexed to
   an [rows x cols/2] grid and split again, recursively.  A capacitor that
   receives a contiguous rank bucket is therefore maximally interspersed at
   its own scale.  A single-column grid is transposed to keep halving. *)
let rec frac ~rows ~cols i j =
  if rows <= 1 && cols <= 1 then 0.
  else if cols = 1 then frac ~rows:1 ~cols:rows j i
  else begin
    let p = (i + j) land 1 in
    let jp = (i + p) land 1 in
    let v = (j - jp) / 2 in
    let cols' = (cols - jp + 1) / 2 in
    (if p = 0 then 0. else 0.5) +. (0.5 *. frac ~rows ~cols:cols' i v)
  end

let rank ~rows ~cols (c : Cell.t) = frac ~rows ~cols c.Cell.row c.Cell.col

(* Each cell's rank is computed once; ties keep row-major order. *)
let sort_by_rank ~rows ~cols cells =
  let cells = Array.of_list cells in
  let ranks = Array.map (rank ~rows ~cols) cells in
  let order = Array.init (Array.length cells) Fun.id in
  Array.stable_sort
    (fun a b ->
       match Float.compare ranks.(a) ranks.(b) with
       | 0 -> Cell.compare cells.(a) cells.(b)
       | c -> c)
    order;
  Array.fold_right (fun i acc -> cells.(i) :: acc) order []

let sorted_cells ~rows ~cols =
  let cells = ref [] in
  for row = rows - 1 downto 0 do
    for col = cols - 1 downto 0 do
      cells := Cell.make ~row ~col :: !cells
    done
  done;
  sort_by_rank ~rows ~cols !cells

let place ~bits =
  Weights.check_bits bits;
  let unit_multiplier = if bits mod 2 = 1 then 2 else 1 in
  let counts = Weights.scale (Weights.unit_counts ~bits) ~by:unit_multiplier in
  let total = Array.fold_left ( + ) 0 counts in
  let { Sizing.rows; cols; dummies } = Sizing.compute ~total_units:total in
  assert (dummies = 0 && rows = cols);
  let b = Builder.make ~bits ~rows ~cols ~unit_multiplier ~counts in
  let order = Builder.cursor (sorted_cells ~rows ~cols) in
  (* Mirror cells share the same rank on even-by-even grids, so assigning
     mirrored pairs in rank order keeps each capacitor inside its bucket. *)
  let take_pairs k =
    while Builder.remaining b k > 1 do
      match Builder.first_free_in b order with
      | None -> invalid_arg "Chessboard.place: ran out of cells"
      | Some c -> Builder.assign_pair b c k
    done
  in
  for k = bits downto 2 do
    take_pairs k
  done;
  if unit_multiplier = 2 then begin
    take_pairs 1;
    take_pairs 0
  end
  else begin
    match Builder.first_free_in b order with
    | None -> invalid_arg "Chessboard.place: no cells left for C_0/C_1"
    | Some c -> Builder.assign_split_pair b c ~at:1 ~at_mirror:0
  end;
  Builder.finish b ~style_name
