(* Whole-array RMS distance of the cell centres from the array centre.
   The squares are added in reverse row-major order; the pinned
   dispersion figures depend on this summation order.  A distance is
   [Float.hypot] of the coordinates, as [Geom.Point.distance] from the
   origin computes it, read straight from the axis arrays. *)
let array_rms tech (t : Placement.t) =
  let xs, ys = Placement.axes tech t in
  let sum2 = ref 0. in
  for row = t.Placement.rows - 1 downto 0 do
    for col = t.Placement.cols - 1 downto 0 do
      let d = Float.hypot xs.(col) ys.(row) in
      sum2 := !sum2 +. (d *. d)
    done
  done;
  let n = t.Placement.rows * t.Placement.cols in
  if n = 0 then 0. else sqrt (!sum2 /. float_of_int n)

(* Every capacitor's spread: centroids from one row-major pass
   (Placement.position_sums), scaled as [Geom.Point.scale] scales them,
   then each capacitor's squared distances from its centroid summed in a
   second row-major pass, so every capacitor's sums run over its cells
   in row-major order. *)
let spreads tech (t : Placement.t) =
  let xs, ys = Placement.axes tech t in
  let sums = Placement.position_sums tech t in
  let caps = Array.length sums in
  let cx = Array.make caps 0. and cy = Array.make caps 0. in
  Array.iteri
    (fun k (n, (sum : Geom.Point.t)) ->
       let s = 1. /. float_of_int n in
       cx.(k) <- s *. sum.Geom.Point.x;
       cy.(k) <- s *. sum.Geom.Point.y)
    sums;
  let sum2 = Array.make caps 0. in
  let assign = t.Placement.assign in
  for row = 0 to Array.length assign - 1 do
    let ids = assign.(row) in
    for col = 0 to Array.length ids - 1 do
      let k = ids.(col) in
      if k >= 0 && k <= t.Placement.bits then begin
        let d = Float.hypot (xs.(col) -. cx.(k)) (ys.(row) -. cy.(k)) in
        sum2.(k) <- sum2.(k) +. (d *. d)
      end
    done
  done;
  let denom = array_rms tech t in
  Array.mapi
    (fun k (n, _) ->
       if n <= 1 || denom <= 0. then 0.
       else sqrt (sum2.(k) /. float_of_int n) /. denom)
    sums

let spread tech t k =
  if k < 0 || k > t.Placement.bits then
    invalid_arg "Dispersion.spread: bad capacitor id";
  (spreads tech t).(k)

let overall tech t =
  let spread = spreads tech t in
  let total = ref 0. and weight = ref 0 in
  for k = 0 to t.Placement.bits do
    let count = t.Placement.counts.(k) in
    total := !total +. (float_of_int count *. spread.(k));
    weight := !weight + count
  done;
  if !weight = 0 then 0. else !total /. float_of_int !weight
