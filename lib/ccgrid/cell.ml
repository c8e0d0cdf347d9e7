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

(* Centre-outwards, counter-clockwise from +u: each Chebyshev ring
   [max |u| |v| = r] of the doubled centred coordinates is walked side by
   side in steps of 2, so the order is generated, not sorted.  On ring [r]
   the sides, in angle order, are: u = r with 0 <= v < r ascending;
   v = r with u descending from r to above -r; u = -r with v descending
   from r to above -r; v = -r with u ascending from -r to below r;
   u = r with v ascending from -r to below 0.  Each corner belongs to
   the side it starts.  Two cells of one ring never share an angle, so
   this is the order of the stable sort by (ring, angle). *)
let spiral_order ~rows ~cols =
  let umax = rows - 1 and vmax = cols - 1 in
  let pu = umax land 1 and pv = vmax land 1 in
  (* the nearest coordinate of parity [p] at or below / above [x] *)
  let down x p = if (x - p) land 1 = 0 then x else x - 1 in
  let up x p = if (x - p) land 1 = 0 then x else x + 1 in
  let acc = ref [] in
  let emit u v =
    acc := { row = (u + umax) / 2; col = (v + vmax) / 2 } :: !acc
  in
  (* [x], [x + step], ... up to [last] (down to it when [step] < 0);
     nothing when [x] is already past it *)
  let walk x last step f =
    if (last - x) * step >= 0 then
      for k = 0 to (last - x) / step do
        f (x + (k * step))
      done
  in
  if pu = 0 && pv = 0 then emit 0 0;
  for r = 1 to Int.max umax vmax do
    let u_side = r <= umax && r land 1 = pu in
    let v_side = r <= vmax && r land 1 = pv in
    if u_side then walk (up 0 pv) (Int.min (r - 1) vmax) 2 (emit r);
    if v_side then
      walk (down (Int.min r umax) pu) (Int.max (1 - r) (-umax)) (-2)
        (fun u -> emit u r);
    if u_side then
      walk (down (Int.min r vmax) pv) (Int.max (1 - r) (-vmax)) (-2)
        (emit (-r));
    if v_side then
      walk (up (Int.max (-r) (-umax)) pu) (Int.min (r - 1) umax) 2
        (fun u -> emit u (-r));
    if u_side then
      walk (up (Int.max (-r) (-vmax)) pv) (Int.min (-1) vmax) 2 (emit r)
  done;
  List.rev !acc

let pp ppf c = Format.fprintf ppf "(%d, %d)" c.row c.col
