(* Correlation sums on the unit-cell lattice: direct sums for the small
   capacitors, 2-D FFT convolutions for the rest.

   Unit-cell centres sit on the half-pitch lattice of the process
   (Ccgrid.Placement.position), so rho_ab depends only on the lattice
   displacement b - a, and only on its magnitude along each axis: one
   quadrant table R(|dr|, |dc|) holds every correlation.  With 1_k the
   indicator grid of capacitor k,

     sum_{a in j} sum_{b in k} rho_ab = sum_{a in j} (R * 1_k)(a)

   and one FFT convolution per capacitor yields a whole column of the
   matrix.  Zero-padding every axis to a power of two >= 2n - 1 makes the
   circular convolution equal the linear one.  R is real and even, so its
   transform is real: two capacitors share one complex transform (one in
   the real part, one in the imaginary part) without mixing.

   Through the FFT a capacitor costs half a forward and inverse pair over
   the G-point transform grid, O(G log G).  Summed directly, its column
   costs one table lookup per pair of its n_k cells with the array's
   cells, which fill at most a quarter of the grid.  The two meet near
   n_k = log2 G, so a capacitor of at most log2 G cells is summed
   directly (the binary weights put C_0..C_4 there at 6-12 bits) and the
   FFT serves the rest. *)

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

(* log2 of the least power of two >= n *)
let rec log2_at_least ?(k = 0) n = if 1 lsl k >= n then k else log2_at_least ~k:(k + 1) n

(* A transform grid above this many points (two planes of 32 MB) is left
   to the pair sum, so a sparse input spread over a huge lattice cannot
   exhaust memory.  A 16-bit array needs 2^18. *)
let max_points = 1 lsl 22

type t = {
  rows : axis;
  cols : axis;
  b1 : int;                          (* log2 transform rows; 2^b1 >= 2 lines - 1 *)
  b2 : int;                          (* log2 transform columns *)
  cells : int array array;           (* per capacitor: row lsl b2 + col *)
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
      let b1 = log2_at_least ((2 * rows.lines) - 1)
      and b2 = log2_at_least ((2 * cols.lines) - 1) in
      if 1 lsl (b1 + b2) > max_points then None
      else
        let cells =
          Array.map
            (Array.map (fun p ->
                 (index unit_y rows ~horizontal:false p lsl b2)
                 + index unit_x cols ~horizontal:true p))
            positions
        in
        Some { rows; cols; cells; b1; b2 }

(* summed directly: at most log2 G cells on the G-point grid *)
let direct t k = Array.length t.cells.(k) <= t.b1 + t.b2

let transformed t =
  Array.of_list
    (List.filter (fun k -> not (direct t k)) (List.init (Array.length t.cells) Fun.id))

(* one transform of R when any capacitor needs it, then a forward and an
   inverse per pair of transformed capacitors *)
let transform_points t =
  match Array.length (transformed t) with
  | 0 -> 0
  | m -> (1 + (2 * ((m + 1) / 2))) lsl (t.b1 + t.b2)

(* The 2-D transforms run over rows: each live row by a 1-D transform
   ([across], length l2), then every column at once by butterflies over
   whole rows ([down], length l1).  Spectra stay in bit-reversed order.
   A capacitor's cells fill the first half of both axes, so its forward
   pass prunes the zero halves and its inverse computes only the live
   ones. *)
let correlation_sums (tech : Tech.Process.t) ({ rows; cols; b1; b2; cells } as t) =
  let l1 = 1 lsl b1 and l2 = 1 lsl b2 and mask = (1 lsl b2) - 1 in
  let n = Array.length cells in
  let sums = Array.make_matrix n n 0. in
  (* R(|dr|, |dc|), the correlation at every displacement in lattice
     lines.  Mismatch.correlation's expression, written out so the loop
     does not box a float per displacement.  The array has the size of
     R's spectrum quadrant, which takes it over once the direct sums are
     done; rows of up to 256 floats are minor-heap blocks, so a build's
     arrays die young instead of landing in the major heap. *)
  let table = Array.make_matrix ((l1 / 2) + 1) ((l2 / 2) + 1) 0. in
  let lc = tech.Tech.Process.corr_length and log_rho = Float.log tech.Tech.Process.rho_u in
  for dr = 0 to rows.lines - 1 do
    for dc = 0 to cols.lines - 1 do
      let d = Float.hypot (float_of_int dc *. cols.step) (float_of_int dr *. rows.step) in
      table.(dr).(dc) <- Float.exp (d /. lc *. log_rho)
    done
  done;
  (* a direct column: every pair of cells, self pairs included *)
  for k = 0 to n - 1 do
    if direct t k then begin
      let ck = cells.(k) in
      for j = 0 to n - 1 do
        let cj = cells.(j) and acc = ref 0. in
        for x = 0 to Array.length ck - 1 do
          let rb = ck.(x) lsr b2 and cb = ck.(x) land mask in
          for y = 0 to Array.length cj - 1 do
            let a = cj.(y) in
            acc := !acc +. table.(abs ((a lsr b2) - rb)).(abs ((a land mask) - cb))
          done
        done;
        sums.(j).(k) <- !acc
      done
    end
  done;
  let big = transformed t in
  let m = Array.length big in
  if m > 0 then begin
    let down = Fft.plan l1 and across = Fft.plan l2 in
    (* two l1 x l2 planes held as rows, reused by every pair *)
    let re = Array.init l1 (fun _ -> Array.make l2 0.) in
    let im = Array.init l1 (fun _ -> Array.make l2 0.) in
    (* R wrapped onto the grid: the table mirrored into all four
       quadrants.  Its transform is real. *)
    for dr = 0 to rows.lines - 1 do
      let src = table.(dr) and up = re.(dr) and dn = re.((l1 - dr) land (l1 - 1)) in
      for dc = 0 to cols.lines - 1 do
        let v = src.(dc) and dc' = (l2 - dc) land mask in
        up.(dc) <- v;
        up.(dc') <- v;
        dn.(dc) <- v;
        dn.(dc') <- v
      done
    done;
    for r = 0 to l1 - 1 do
      Fft.forward across ~re:re.(r) ~im:im.(r)
    done;
    Fft.forward_columns down ~re ~im;
    (* R is even in both axes, so its transform is too: keep one quadrant,
       by frequency, with the inverse's 1/(l1 l2) folded in.  [fold] maps
       a bit-reversed spectrum index to its quadrant index. *)
    let scale = 1. /. float_of_int (l1 * l2) and quadrant = table in
    Array.iteri
      (fun f1 q ->
         let row = re.(Fft.reversed down f1) in
         for f2 = 0 to Array.length q - 1 do
           q.(f2) <- scale *. row.(Fft.reversed across f2)
         done)
      quadrant;
    let fold plan =
      let l = Fft.size plan in
      Array.init l (fun i ->
          let f = Fft.reversed plan i in
          Int.min f (l - f))
    in
    let fold1 = fold down and fold2 = fold across in
    let fill part k =
      Array.iter
        (fun i -> part.(i lsr b2).(i land mask) <- part.(i lsr b2).(i land mask) +. 1.)
        cells.(k)
    in
    let live = rows.lines and half1 = Int.max 1 (l1 / 2) and half2 = Int.max 1 (l2 / 2) in
    for pair = 0 to (m - 1) / 2 do
      let a = big.(2 * pair) and paired = (2 * pair) + 1 < m in
      let b = if paired then big.((2 * pair) + 1) else a in
      (* zero what the pruned forward stages read: the first half of each
         live row, and the rest of the first half of the rows *)
      for r = 0 to half1 - 1 do
        let width = if r < live then half2 else l2 in
        Array.fill re.(r) 0 width 0.;
        Array.fill im.(r) 0 width 0.
      done;
      fill re a;
      if paired then fill im b;
      for r = 0 to live - 1 do
        Fft.forward ~half:true across ~re:re.(r) ~im:im.(r)
      done;
      Fft.forward_columns ~half:true down ~re ~im;
      for r = 0 to l1 - 1 do
        let s = quadrant.(fold1.(r)) and xr = re.(r) and xi = im.(r) in
        for c = 0 to l2 - 1 do
          let s = s.(fold2.(c)) in
          xr.(c) <- xr.(c) *. s;
          xi.(c) <- xi.(c) *. s
        done
      done;
      Fft.inverse_columns ~half:true down ~re ~im;
      for r = 0 to live - 1 do
        Fft.inverse ~half:true across ~re:re.(r) ~im:im.(r)
      done;
      (* re is now R * 1_a and im is R * 1_b: sum both over every
         capacitor's cells *)
      Array.iteri
        (fun j js ->
           Array.iter
             (fun i ->
                let r = i lsr b2 and c = i land mask in
                sums.(j).(a) <- sums.(j).(a) +. re.(r).(c);
                if paired then sums.(j).(b) <- sums.(j).(b) +. im.(r).(c))
             js)
        cells
    done
  end;
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
