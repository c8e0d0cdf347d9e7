type t = {
  lo : float;
  hi : float;
}

let make a b = if a <= b then { lo = a; hi = b } else { lo = b; hi = a }
let length { lo; hi } = hi -. lo
let contains { lo; hi } x = lo <= x && x <= hi

let intersect a b =
  let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
  if lo <= hi then Some { lo; hi } else None

let overlap_length a b =
  match intersect a b with
  | None -> 0.
  | Some i -> length i

let hull a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }
