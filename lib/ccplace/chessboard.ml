open Ccgrid

let style_name = "chessboard"

(* The recursion halves the columns (rounding up at worst) down to one,
   then transposes and halves the rows: the deepest cell, (0, 0), takes
   ceil(log2 cols) + ceil(log2 rows) levels. *)
let depth ~rows ~cols =
  let rec halvings n = if n <= 1 then 0 else 1 + halvings ((n + 1) / 2) in
  halvings rows + halvings cols

(* Hierarchical parity rank, in units of [half * 2] at this level.
   Level 1 splits the grid by chessboard colour (i+j mod 2), the second
   colour adding [half]; the same-colour cells form a lattice that is
   re-indexed to an [rows x cols/2] grid and split again, recursively.
   A capacitor that receives a contiguous rank bucket is therefore
   maximally interspersed at its own scale.  A single-column grid is
   transposed to keep halving. *)
let rec key_bits ~rows ~cols i j half =
  if rows <= 1 && cols <= 1 then 0
  else if cols = 1 then key_bits ~rows:1 ~cols:rows j i half
  else begin
    let p = (i + j) land 1 in
    let jp = (i + p) land 1 in
    let v = (j - jp) / 2 in
    let cols' = (cols - jp + 1) / 2 in
    (if p = 0 then 0 else half) + key_bits ~rows ~cols:cols' i v (half / 2)
  end

let rank_key ~rows ~cols (c : Cell.t) =
  key_bits ~rows ~cols c.Cell.row c.Cell.col ((1 lsl depth ~rows ~cols) / 2)

let rank ~rows ~cols c =
  Float.ldexp (float_of_int (rank_key ~rows ~cols c)) (-depth ~rows ~cols)

(* One LSD radix pass per byte of [keys], each a stable counting sort;
   returns the sorted array, which is [keys] or [tmp]. *)
let radix_sort keys tmp ~bits =
  let n = Array.length keys in
  let count = Array.make 256 0 in
  let src = ref keys and dst = ref tmp in
  let shift = ref 0 in
  while !shift < bits do
    let s = !src and d = !dst and sh = !shift in
    Array.fill count 0 256 0;
    for i = 0 to n - 1 do
      let b = (s.(i) lsr sh) land 255 in
      count.(b) <- count.(b) + 1
    done;
    let total = ref 0 in
    for b = 0 to 255 do
      let c = count.(b) in
      count.(b) <- !total;
      total := !total + c
    done;
    for i = 0 to n - 1 do
      let k = s.(i) in
      let b = (k lsr sh) land 255 in
      d.(count.(b)) <- k;
      count.(b) <- count.(b) + 1
    done;
    src := d;
    dst := s;
    shift := sh + 8
  done;
  !src

(* One key per cell: the rank key above the cell's row-major index, so
   ties on rank go row-major whatever the input order. *)
let sort_by_rank ~rows ~cols cells =
  let depth = depth ~rows ~cols in
  let index_bits =
    let rec width b = if 1 lsl b >= rows * cols then b else width (b + 1) in
    width 0
  in
  let keys = Array.make (List.length cells) 0 in
  List.iteri
    (fun n (c : Cell.t) ->
       let row = c.Cell.row and col = c.Cell.col in
       if row < 0 || row >= rows || col < 0 || col >= cols then
         invalid_arg "Chessboard.sort_by_rank: cell outside the grid";
       let key = key_bits ~rows ~cols row col ((1 lsl depth) / 2) in
       keys.(n) <- (key lsl index_bits) lor ((row * cols) + col))
    cells;
  let sorted =
    radix_sort keys (Array.make (Array.length keys) 0)
      ~bits:(depth + index_bits)
  in
  let mask = (1 lsl index_bits) - 1 in
  let cells = ref [] in
  for j = Array.length sorted - 1 downto 0 do
    let i = sorted.(j) land mask in
    cells := { Cell.row = i / cols; col = i mod cols } :: !cells
  done;
  !cells

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
