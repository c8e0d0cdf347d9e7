(* The gradient's magnitude and direction, evaluated once per call so a
   sum over cells does not redo [theta]'s default, [cos] and [sin] per
   cell. *)
let gradient (tech : Tech.Process.t) theta =
  let theta = Option.value theta ~default:tech.Tech.Process.gradient_theta in
  (tech.Tech.Process.gradient_ppm *. 1e-6, cos theta, sin theta)

(* t0 / t at (x, y) *)
let[@inline] ratio ~g ~c ~s x y = 1. /. (1. +. (g *. ((x *. c) +. (y *. s))))

let thickness_ratio tech ?theta (p : Geom.Point.t) =
  let g, c, s = gradient tech theta in
  ratio ~g ~c ~s p.Geom.Point.x p.Geom.Point.y

let unit_value tech ?theta p =
  tech.Tech.Process.unit_cap *. thickness_ratio tech ?theta p

let capacitor_value tech ?theta positions =
  let g, c, s = gradient tech theta and cu = tech.Tech.Process.unit_cap in
  let total = ref 0. in
  for i = 0 to Array.length positions - 1 do
    let p = positions.(i) in
    total := !total +. (cu *. ratio ~g ~c ~s p.Geom.Point.x p.Geom.Point.y)
  done;
  !total

let systematic_shift tech ?theta positions =
  let nominal =
    float_of_int (Array.length positions) *. tech.Tech.Process.unit_cap
  in
  capacitor_value tech ?theta positions -. nominal

let grid_values tech ?theta ~xs ~ys ~caps ids =
  let g, c, s = gradient tech theta and cu = tech.Tech.Process.unit_cap in
  let totals = Array.make caps 0. in
  for row = 0 to Array.length ids - 1 do
    let y = ys.(row) and line = ids.(row) in
    for col = 0 to Array.length line - 1 do
      let k = line.(col) in
      if k >= 0 && k < caps then
        totals.(k) <- totals.(k) +. (cu *. ratio ~g ~c ~s xs.(col) y)
    done
  done;
  totals

let worst_theta ~samples ~objective =
  if samples < 1 then invalid_arg "Gradient.worst_theta: samples must be >= 1";
  let best = ref (0., objective 0.) in
  for i = 1 to samples - 1 do
    let theta = Float.pi *. float_of_int i /. float_of_int samples in
    let value = objective theta in
    let _, best_value = !best in
    if value > best_value then best := (theta, value)
  done;
  !best
