(* Correlation sums on the unit-cell lattice by 2-D FFT.

   Unit-cell centres sit on the half-pitch lattice of the process
   (Ccgrid.Placement.position), so rho_ab depends only on the lattice
   displacement b - a.  With 1_k the indicator grid of capacitor k and
   R(d) the correlation at displacement d,

     sum_{a in j} sum_{b in k} rho_ab = sum_{a in j} (R * 1_k)(a)

   and one FFT convolution per capacitor yields a whole column of the
   matrix.  Zero-padding every axis to a power of two >= 2n - 1 makes the
   circular convolution equal the linear one.  R is real and even, so its
   transform is real: two capacitors share one complex transform (one in
   the real part, one in the imaginary part) without mixing. *)

(* Index of [x] on the lattice of pitch [unit], when [x] is exactly a
   lattice point.  Indices are capped at 2^20 so grid sizes and flat cell
   indices stay far from overflow; anything wider is left to the pair
   sum. *)
let[@inline] snap unit x =
  let r = Float.round (x /. unit) in
  if Float.abs r < 1048576. && Float.compare (Float.of_int (Float.to_int r) *. unit) x = 0
  then Float.to_int r
  else raise Exit

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* One lattice axis: the lowest coordinate (in half-pitch units), the
   common stride of all coordinates, the number of lattice lines and the
   stride in micrometres. *)
type axis = { lo : int; stride : int; lines : int; step : float }

let coord ~horizontal (p : Geom.Point.t) =
  if horizontal then p.Geom.Point.x else p.Geom.Point.y
[@@inline]

(* Raises [Exit] when a coordinate is off the lattice. *)
let axis unit ~horizontal positions =
  let first = ref None and lo = ref max_int and hi = ref min_int and g = ref 0 in
  Array.iter
    (Array.iter (fun p ->
         let v = snap unit (coord ~horizontal p) in
         (match !first with
          | None -> first := Some v
          | Some v0 -> g := gcd !g (v - v0));
         lo := Int.min !lo v;
         hi := Int.max !hi v))
    positions;
  let stride = Int.max 1 !g in
  { lo = !lo; stride; lines = ((!hi - !lo) / stride) + 1;
    step = float_of_int stride *. unit }

let index unit a ~horizontal p = (snap unit (coord ~horizontal p) - a.lo) / a.stride

let rec pow2_at_least ?(p = 1) n = if p >= n then p else pow2_at_least ~p:(2 * p) n

(* A complex l1 x l2 grid held as rows, with a scratch column.  Rows of up
   to 256 floats are minor-heap blocks, so a build's planes die young
   instead of landing in the major heap. *)
type plane = {
  re : float array array;
  im : float array array;
  col_re : float array;
  col_im : float array;
}

let plane l1 l2 =
  { re = Array.init l1 (fun _ -> Array.make l2 0.);
    im = Array.init l1 (fun _ -> Array.make l2 0.);
    col_re = Array.make l1 0.;
    col_im = Array.make l1 0. }

let transform ~inverse ~re ~im =
  if inverse then Fft.ifft ~re ~im else Fft.fft ~re ~im

let rows_pass p ~inverse ~live =
  for r = 0 to live - 1 do
    transform ~inverse ~re:p.re.(r) ~im:p.im.(r)
  done

let cols_pass p ~inverse =
  let re = p.col_re and im = p.col_im in
  for c = 0 to Array.length p.re.(0) - 1 do
    for r = 0 to Array.length re - 1 do
      re.(r) <- p.re.(r).(c);
      im.(r) <- p.im.(r).(c)
    done;
    transform ~inverse ~re ~im;
    for r = 0 to Array.length re - 1 do
      p.re.(r).(c) <- re.(r);
      p.im.(r).(c) <- im.(r)
    done
  done

(* Forward: only the first [live] rows hold data, so the other row
   transforms are transforms of zero.  Inverse: only the first [live]
   rows are read back, so the other row transforms are skipped. *)
let forward p ~live =
  rows_pass p ~inverse:false ~live;
  cols_pass p ~inverse:false

let inverse p ~live =
  cols_pass p ~inverse:true;
  rows_pass p ~inverse:true ~live

type t = {
  rows : axis;
  cols : axis;
  l1 : int;                          (* transform rows, >= 2 lines - 1 *)
  l2 : int;                          (* transform columns *)
  cells : int array array;           (* per capacitor: row * l2 + col *)
}

let of_positions tech positions =
  let unit_x = Tech.Process.cell_pitch_x tech /. 2. in
  let unit_y = Tech.Process.cell_pitch_y tech /. 2. in
  if Array.for_all (fun ps -> Array.length ps = 0) positions then None
  else
    match
      (axis unit_y ~horizontal:false positions, axis unit_x ~horizontal:true positions)
    with
    | exception Exit -> None
    | rows, cols ->
      let l2 = pow2_at_least ((2 * cols.lines) - 1) in
      let cells =
        Array.map
          (Array.map (fun p ->
               (index unit_y rows ~horizontal:false p * l2)
               + index unit_x cols ~horizontal:true p))
          positions
      in
      Some { rows; cols; cells; l1 = pow2_at_least ((2 * rows.lines) - 1); l2 }

(* Cost model, calibrated on a 2-core x86-64 VM: a transform point costs
   about 5.5 ns per butterfly level and a cell pair about 31 ns (one exp).
   The transforms are the kernel's plus two per pair of capacitors. *)
let cheaper_than_pairwise t =
  let g = Array.fold_left (fun acc c -> acc + Array.length c) 0 t.cells in
  let points = t.l1 * t.l2 in
  let levels = Int.max 1 (Float.to_int (Float.log2 (float_of_int points))) in
  let transforms = 1 + (2 * ((Array.length t.cells + 1) / 2)) in
  55 * transforms * points * levels < 310 * (g * (g - 1) / 2)

let correlation_sums (tech : Tech.Process.t) { rows; cols; l1; l2; cells } =
  (* the correlation at every displacement, wrapped onto the grid; its
     transform is real.  Mismatch.correlation's expression, written out so
     the loop does not box a float per displacement. *)
  let lc = tech.Tech.Process.corr_length and log_rho = Float.log tech.Tech.Process.rho_u in
  let p = plane l1 l2 in
  for dr = 1 - rows.lines to rows.lines - 1 do
    for dc = 1 - cols.lines to cols.lines - 1 do
      let d = Float.hypot (float_of_int dc *. cols.step) (float_of_int dr *. rows.step) in
      p.re.((dr + l1) mod l1).((dc + l2) mod l2) <- Float.exp (d /. lc *. log_rho)
    done
  done;
  forward p ~live:l1;
  (* R is even in both axes, so its transform is too: keep one quadrant *)
  let quadrant = Array.init ((l1 / 2) + 1) (fun r -> Array.sub p.re.(r) 0 ((l2 / 2) + 1)) in
  let n = Array.length cells in
  let sums = Array.make_matrix n n 0. in
  let fill part k =
    Array.iter
      (fun i -> part.(i / l2).(i mod l2) <- part.(i / l2).(i mod l2) +. 1.)
      cells.(k)
  in
  for pair = 0 to (n - 1) / 2 do
    let a = 2 * pair and b = (2 * pair) + 1 in
    Array.iter (fun row -> Array.fill row 0 l2 0.) p.re;
    Array.iter (fun row -> Array.fill row 0 l2 0.) p.im;
    fill p.re a;
    if b < n then fill p.im b;
    forward p ~live:rows.lines;
    for r = 0 to l1 - 1 do
      let re = p.re.(r) and im = p.im.(r) in
      let s = quadrant.(Int.min r (l1 - r)) in
      for c = 0 to l2 - 1 do
        let s = s.(Int.min c (l2 - c)) in
        re.(c) <- re.(c) *. s;
        im.(c) <- im.(c) *. s
      done
    done;
    inverse p ~live:rows.lines;
    (* p.re is now R * 1_a and p.im is R * 1_b: sum both over every
       capacitor's cells *)
    Array.iteri
      (fun j js ->
         Array.iter
           (fun i ->
              let r = i / l2 and c = i mod l2 in
              sums.(j).(a) <- sums.(j).(a) +. p.re.(r).(c);
              if b < n then sums.(j).(b) <- sums.(j).(b) +. p.im.(r).(c))
           js)
      cells
  done;
  (* the two evaluation orders agree up to rounding; average them so the
     matrix is exactly symmetric *)
  for j = 0 to n - 1 do
    for k = j + 1 to n - 1 do
      let s = 0.5 *. (sums.(j).(k) +. sums.(k).(j)) in
      sums.(j).(k) <- s;
      sums.(k).(j) <- s
    done
  done;
  sums
