type t = {
  row : int;
  col : int;
}

let make ~row ~col = { row; col }
let equal a b = a.row = b.row && a.col = b.col

let compare a b =
  match Int.compare a.row b.row with
  | 0 -> Int.compare a.col b.col
  | c -> c

let mirror ~rows ~cols c = { row = rows - 1 - c.row; col = cols - 1 - c.col }

let centered ~rows ~cols c =
  ((2 * c.row) - (rows - 1), (2 * c.col) - (cols - 1))

let ring ~rows ~cols c =
  let u, v = centered ~rows ~cols c in
  Int.max (abs u) (abs v)

let adjacent a b = abs (a.row - b.row) + abs (a.col - b.col) = 1

let in_bounds ~rows ~cols c =
  c.row >= 0 && c.row < rows && c.col >= 0 && c.col < cols

let neighbors ~rows ~cols c =
  let candidates =
    [ { c with row = c.row - 1 };
      { c with row = c.row + 1 };
      { c with col = c.col - 1 };
      { c with col = c.col + 1 } ]
  in
  List.filter (in_bounds ~rows ~cols) candidates

(* Sorting key: ring first, then angle from the positive-u axis walking
   counter-clockwise.  atan2 is stable enough here because (u, v) are exact
   small integers. *)
let spiral_key ~rows ~cols c =
  let u, v = centered ~rows ~cols c in
  let angle = Float.atan2 (float_of_int v) (float_of_int u) in
  let angle = if angle < 0. then angle +. (2. *. Float.pi) else angle in
  (ring ~rows ~cols c, angle)

(* Each cell's key is computed once; a stable sort of the row-major cell
   indices then keeps row-major order among equal keys. *)
let spiral_order ~rows ~cols =
  let cells =
    Array.init (rows * cols) (fun i -> { row = i / cols; col = i mod cols })
  in
  let keys = Array.map (spiral_key ~rows ~cols) cells in
  let order = Array.init (Array.length cells) Fun.id in
  Array.stable_sort
    (fun a b ->
       let ring_a, angle_a = keys.(a) and ring_b, angle_b = keys.(b) in
       match Int.compare ring_a ring_b with
       | 0 -> Float.compare angle_a angle_b
       | c -> c)
    order;
  Array.fold_right (fun i acc -> cells.(i) :: acc) order []

let pp ppf c = Format.fprintf ppf "(%d, %d)" c.row c.col
