(* Correlation sums on the unit-cell lattice: direct sums among the
   small parts, 2-D FFT convolutions for the middle ones, and the
   largest part derived from the rest.

   Unit-cell centres sit on the half-pitch lattice of the process
   (Ccgrid.Placement.position), so rho_ab depends only on the lattice
   displacement b - a, and only on its magnitude along each axis: one
   quadrant table R(|dr|, |dc|) holds every correlation.  With v_k the
   (signed) indicator grid of part k,

     S(j, k) = sum_a v_j(a) (R * v_k)(a)

   and one FFT convolution per part yields a whole column of the matrix.
   Zero-padding every axis to a power of two >= 2n - 1 makes the
   circular convolution equal the linear one.  R is real and even, so its
   transform is real: two parts share one complex transform (one in the
   real part, one in the imaginary part) without mixing.

   The parts are the capacitors and a remainder that completes them to
   the indicator of the lattice rectangle: +1 on each point no cell
   covers (the holes: dummies, a sparse input) and -1 for each cell
   beyond the first on a point (the extra copies of repeated cells).
   Three exact identities cut the work:

   - the largest part D needs no transform:
       S(j, D) = T_j - sum_{k <> D} S(j, k),  T_j = sum_a v_j(a) (R * 1_rect)(a),
     and R * 1_rect comes at any point in O(1) from prefix sums of the
     quadrant table.  When D is the remainder no capacitor needs it at
     all;
   - a small part is summed directly only against the other direct
     parts; its sums with a transformed part come from that part's
     column;
   - R is real and even on each axis, so its spectrum needs one
     transform per two distinct rows and the quadrant's columns.

   Summing directly costs one lookup per pair of direct cells; a
   transformed pair costs a forward and an inverse transform over the
   G-point grid.  A cost model with measured constants picks how many of
   the smallest parts to sum directly. *)

(* Index of [x] on the lattice of pitch [unit], when [x] is exactly a
   lattice point.  Indices are capped at 2^20 so grid sizes and flat cell
   indices stay far from overflow; anything wider is left to the pair
   sum. *)
let[@inline] snap unit x =
  let r = Float.round (x /. unit) in
  if Float.abs r < 1048576. && Float.compare (Float.of_int (Float.to_int r) *. unit) x = 0
  then Float.to_int r
  else raise Exit

(* A lattice point in one int: [y + 2^20] above [x + 2^20], 21 bits
   each. *)
let bias = 1 lsl 20

let point ~y ~x =
  if abs y >= bias || abs x >= bias then
    invalid_arg "Lattice.point: coordinate beyond 2^20";
  ((y + bias) lsl 21) lor (x + bias)

let point_y p = (p lsr 21) - bias
let point_x p = (p land ((1 lsl 21) - 1)) - bias

let units tech = (Tech.Process.cell_pitch_y tech /. 2., Tech.Process.cell_pitch_x tech /. 2.)

let position tech p =
  let unit_y, unit_x = units tech in
  Geom.Point.make
    ~x:(float_of_int (point_x p) *. unit_x)
    ~y:(float_of_int (point_y p) *. unit_y)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* One lattice axis: the lowest coordinate (in half-pitch units), the
   common stride of all coordinates, the number of lattice lines and the
   stride in micrometres. *)
type axis = { lo : int; stride : int; lines : int; step : float }

(* The axis of the points' [coord] coordinates; there is at least one
   point. *)
let axis unit coord points =
  let lo = ref max_int and hi = ref min_int and g = ref 0 and v0 = ref None in
  Array.iter
    (fun ps ->
       for i = 0 to Array.length ps - 1 do
         let v = coord ps.(i) in
         (match !v0 with
          | None -> v0 := Some v
          | Some v0 -> g := gcd !g (v - v0));
         lo := Int.min !lo v;
         hi := Int.max !hi v
       done)
    points;
  let stride = Int.max 1 !g in
  { lo = !lo; stride; lines = ((!hi - !lo) / stride) + 1;
    step = float_of_int stride *. unit }

(* log2 of the least power of two >= n *)
let rec log2_at_least ?(k = 0) n = if 1 lsl k >= n then k else log2_at_least ~k:(k + 1) n

(* A transform grid above this many points (two planes of 32 MB) is left
   to the pair sum, so a sparse input spread over a huge lattice cannot
   exhaust memory.  A 16-bit array needs 2^18. *)
let max_points = 1 lsl 22

(* The cost model, in nanoseconds per unit on the 2-core x86-64 VM the
   kernel was timed on (OCaml 5.1.1), from builds with every split
   forced at 8-16 bits: one direct lookup; one transformed pair per grid
   point and log2 level; and, per grid point and log2 level once any
   part is transformed, the planes and R's spectrum.  Only their ratios
   matter. *)
let lookup_ns = 3.0
let pair_ns = 1.5
let spectrum_ns = 2.0

type t = {
  rows : axis;
  cols : axis;
  b1 : int;                          (* log2 transform rows; 2^b1 >= 2 lines - 1 *)
  b2 : int;                          (* log2 transform columns *)
  caps : int;                        (* capacitors; parts [caps], [caps + 1] are the remainder *)
  cells : int array array;           (* per part: row lsl b2 + col *)
  derived : int;                     (* the largest part *)
  direct : int array;                (* parts summed directly, smallest first *)
  transformed : int array;           (* the other parts the sums need *)
}

(* the remainder's extra copies count negatively *)
let sign t k = if k = t.caps + 1 then -1. else 1.

(* Chooses the derived part and the split.  A bit per lattice point
   marks the covered ones; the remainder's cells are listed only when a
   capacitor is derived and so needs them. *)
let plan ~rows ~cols ~b1 ~b2 cells =
  let caps = Array.length cells - 2 and width = cols.lines and mask = (1 lsl b2) - 1 in
  let rect = rows.lines * width in
  let seen = Bytes.make ((rect + 7) / 8) '\000' in
  (* marks cell [i]'s point; true when it was not marked yet *)
  let mark i =
    let k = ((i lsr b2) * width) + (i land mask) in
    let byte = Char.code (Bytes.get seen (k lsr 3)) and bit = 1 lsl (k land 7) in
    if byte land bit <> 0 then false
    else begin
      Bytes.set seen (k lsr 3) (Char.chr (byte lor bit));
      true
    end
  in
  let covered = ref 0 and placed = ref 0 in
  for k = 0 to caps - 1 do
    Array.iter (fun i -> if mark i then incr covered) cells.(k);
    placed := !placed + Array.length cells.(k)
  done;
  let holes = rect - !covered and extra = !placed - !covered in
  let size k =
    if k < caps then Array.length cells.(k) else if k = caps then holes else extra
  in
  let derived = ref 0 in
  for k = 1 to caps + 1 do
    if size k > size !derived then derived := k
  done;
  let derived = !derived in
  if derived < caps && holes + extra > 0 then begin
    Bytes.fill seen 0 (Bytes.length seen) '\000';
    let copies = Array.make extra 0 and e = ref 0 in
    for k = 0 to caps - 1 do
      Array.iter
        (fun i ->
           if not (mark i) then begin
             copies.(!e) <- i;
             incr e
           end)
        cells.(k)
    done;
    let empty = Array.make holes 0 and h = ref 0 in
    for r = 0 to rows.lines - 1 do
      for c = 0 to width - 1 do
        if mark ((r lsl b2) + c) then begin
          empty.(!h) <- (r lsl b2) + c;
          incr h
        end
      done
    done;
    cells.(caps) <- empty;
    cells.(caps + 1) <- copies
  end;
  (* the parts the sums need, smallest first *)
  let needed =
    List.stable_sort
      (fun j k -> Int.compare (size j) (size k))
      (List.filter
         (fun k -> k <> derived && size k > 0 && (k < caps || derived < caps))
         (List.init (caps + 2) Fun.id))
  in
  let needed = Array.of_list needed in
  let count = Array.length needed in
  let g = float_of_int ((b1 + b2) lsl (b1 + b2)) in
  (* the [direct] smallest parts, of [cells] cells in all, summed
     directly and the rest transformed *)
  let cost ~direct ~cells =
    let left = count - direct in
    (lookup_ns *. float_of_int (cells * (cells - 1) / 2))
    +. if left = 0 then 0. else g *. (spectrum_ns +. (pair_ns *. float_of_int ((left + 1) / 2)))
  in
  let best = ref 0 and best_cost = ref (cost ~direct:0 ~cells:0) and summed = ref 0 in
  for m = 1 to count do
    summed := !summed + size needed.(m - 1);
    let c = cost ~direct:m ~cells:!summed in
    if c < !best_cost then begin
      best := m;
      best_cost := c
    end
  done;
  { rows; cols; b1; b2; caps; cells; derived;
    direct = Array.sub needed 0 !best;
    transformed = Array.sub needed !best (count - !best) }

let of_points tech points =
  let unit_y, unit_x = units tech in
  if Array.for_all (fun ps -> Array.length ps = 0) points then None
  else
    let rows = axis unit_y point_y points and cols = axis unit_x point_x points in
    let b1 = log2_at_least ((2 * rows.lines) - 1)
    and b2 = log2_at_least ((2 * cols.lines) - 1) in
    if 1 lsl (b1 + b2) > max_points then None
    else begin
      (* each point becomes its cell's index on the transform grid, in
         place *)
      Array.iter
        (fun ps ->
           for i = 0 to Array.length ps - 1 do
             let p = ps.(i) in
             ps.(i) <-
               (((point_y p - rows.lo) / rows.stride) lsl b2)
               + ((point_x p - cols.lo) / cols.stride)
           done)
        points;
      let caps = Array.length points in
      let cells = Array.init (caps + 2) (fun k -> if k < caps then points.(k) else [||]) in
      Some (plan ~rows ~cols ~b1 ~b2 cells)
    end

let of_positions tech positions =
  let unit_y, unit_x = units tech in
  match
    Array.map
      (Array.map (fun (p : Geom.Point.t) ->
           point ~y:(snap unit_y p.Geom.Point.y) ~x:(snap unit_x p.Geom.Point.x)))
      positions
  with
  | exception Exit -> None
  | points -> of_points tech points

(* one transform of R when any part needs it, then a forward and an
   inverse per pair of transformed parts *)
let transform_points t =
  match Array.length t.transformed with
  | 0 -> 0
  | m -> (1 + (2 * ((m + 1) / 2))) lsl (t.b1 + t.b2)

let direct_lookups t =
  let s = Array.fold_left (fun s k -> s + Array.length t.cells.(k)) 0 t.direct in
  s * (s - 1) / 2

(* The 2-D transforms run over rows: each live row by a 1-D transform
   ([across], length l2), then every column at once by butterflies over
   whole rows ([down], length l1).  Spectra stay in bit-reversed order.
   A part's cells fill the first half of both axes, so its forward pass
   prunes the zero halves and its inverse computes only the live ones. *)
let correlation_sums (tech : Tech.Process.t)
    ({ rows; cols; b1; b2; caps; cells; derived; direct; transformed } as t) =
  let l1 = 1 lsl b1 and l2 = 1 lsl b2 and mask = (1 lsl b2) - 1 in
  let parts = caps + 2 in
  let sums = Array.make_matrix parts parts 0. in
  (* R(|dr|, |dc|), the correlation at every displacement in lattice
     lines.  Mismatch.correlation's expression, written out so the loop
     does not box a float per displacement.  The array has the size of
     R's spectrum quadrant, which takes it over once the direct sums and
     the prefix sums are done; rows of up to 256 floats are minor-heap
     blocks, so a build's arrays die young instead of landing in the
     major heap. *)
  let table = Array.make_matrix ((l1 / 2) + 1) ((l2 / 2) + 1) 0. in
  let lc = tech.Tech.Process.corr_length and log_rho = Float.log tech.Tech.Process.rho_u in
  for dr = 0 to rows.lines - 1 do
    for dc = 0 to cols.lines - 1 do
      let d = Float.hypot (float_of_int dc *. cols.step) (float_of_int dr *. rows.step) in
      table.(dr).(dc) <- Float.exp (d /. lc *. log_rho)
    done
  done;
  (* direct sums, among the direct parts only: every pair of their
     cells once, self pairs counted as [rho_aa = 1] *)
  for x = 0 to Array.length direct - 1 do
    let j = direct.(x) in
    let cj = cells.(j) in
    for y = x to Array.length direct - 1 do
      let k = direct.(y) in
      let ck = cells.(k) and acc = ref 0. in
      for a = 0 to Array.length cj - 1 do
        let rb = cj.(a) lsr b2 and cb = cj.(a) land mask and run = ref 0. in
        for b = (if j = k then a + 1 else 0) to Array.length ck - 1 do
          let i = ck.(b) in
          run := !run +. table.(abs ((i lsr b2) - rb)).(abs ((i land mask) - cb))
        done;
        acc := !acc +. !run
      done;
      let s =
        if j = k then float_of_int (Array.length cj) +. (2. *. !acc)
        else sign t j *. sign t k *. !acc
      in
      sums.(j).(k) <- s;
      sums.(k).(j) <- s
    done
  done;
  let m = Array.length transformed in
  (* two l1 x l2 planes held as rows, shared by the prefix sums, R's
     transform and every pair *)
  let re = if m = 0 then [||] else Array.init l1 (fun _ -> Array.make l2 0.) in
  let im = if m = 0 then [||] else Array.init l1 (fun _ -> Array.make l2 0.) in
  (* T_k = sum_a v_k(a) (R * 1_rect)(a) for the parts the derivation
     reads, and the total sum over the rectangle *)
  let totals = Array.make parts 0. and total = ref 0. in
  if derived < caps then begin
    (* q.(i).(j) = sum of R over [0, i] x [0, j], in a plane when there is
       one and in place of R when nothing transforms it *)
    let q = if m = 0 then table else re in
    for dr = 0 to rows.lines - 1 do
      let src = table.(dr) and dst = q.(dr) and run = ref 0. in
      (* the rectangle holds (lines - d) pairs at each signed offset d *)
      let wr = float_of_int (if dr = 0 then rows.lines else 2 * (rows.lines - dr)) in
      for dc = 0 to cols.lines - 1 do
        let v = src.(dc) in
        let wc = float_of_int (if dc = 0 then cols.lines else 2 * (cols.lines - dc)) in
        total := !total +. (wr *. wc *. v);
        run := !run +. v;
        dst.(dc) <- (if dr = 0 then !run else !run +. q.(dr - 1).(dc))
      done
    done;
    (* (R * 1_rect)(r, c) sums R over the rows [0, r'] + [1, r] and the
       columns [0, c'] + [1, c], with r' and c' the distances to the far
       edges *)
    let q0 = q.(0) in
    let edge = q0.(0) in
    let visit k =
      let ck = cells.(k) and acc = ref 0. in
      for x = 0 to Array.length ck - 1 do
        let r = ck.(x) lsr b2 and c = ck.(x) land mask in
        let r' = rows.lines - 1 - r and c' = cols.lines - 1 - c in
        let qr = q.(r) and qr' = q.(r') in
        acc :=
          !acc +. qr'.(c') +. qr'.(c) +. qr.(c') +. qr.(c) -. qr'.(0) -. qr.(0)
          -. q0.(c') -. q0.(c) +. edge
      done;
      totals.(k) <- sign t k *. !acc
    in
    Array.iter visit direct;
    Array.iter visit transformed
  end;
  if m > 0 then begin
    let down = Fft.plan l1 and across = Fft.plan l2 in
    (* R's spectrum.  Row r of R mirrored onto the grid is real and even,
       and so is its transform: rows 2i and 2i + 1 share plane row i, one
       in each part, and come out as the real and imaginary parts.  Row
       l1 - r repeats row r and rows past the live ones are zero, so
       these are all the distinct rows. *)
    let pairs_of_rows = (rows.lines + 1) / 2 in
    let mirror src dst =
      Array.fill dst 0 l2 0.;
      for dc = 0 to cols.lines - 1 do
        let v = src.(dc) in
        dst.(dc) <- v;
        dst.((l2 - dc) land mask) <- v
      done
    in
    for i = 0 to pairs_of_rows - 1 do
      mirror table.(2 * i) re.(i);
      if (2 * i) + 1 < rows.lines then mirror table.((2 * i) + 1) im.(i)
      else Array.fill im.(i) 0 l2 0.;
      Fft.forward across ~re:re.(i) ~im:im.(i)
    done;
    (* each row's spectrum over the quadrant's columns, in frequency
       order, replaces that row of R *)
    for r = 0 to rows.lines - 1 do
      let src = if r land 1 = 0 then re.(r / 2) else im.(r / 2) and dst = table.(r) in
      for f2 = 0 to l2 / 2 do
        dst.(f2) <- src.(Fft.reversed across f2)
      done
    done;
    (* the quadrant's columns are real and even down the rows too: two
       share each of the first [width] plane columns, even frequencies in
       [re] and odd ones in [im] *)
    let width = (l2 / 4) + 1 in
    for r = 0 to l1 - 1 do
      let rr = Int.min r ((l1 - r) land (l1 - 1)) and xr = re.(r) and xi = im.(r) in
      if rr < rows.lines then begin
        let h = table.(rr) in
        for c = 0 to width - 1 do
          xr.(c) <- h.(2 * c);
          xi.(c) <- (if (2 * c) + 1 <= l2 / 2 then h.((2 * c) + 1) else 0.)
        done
      end
      else begin
        Array.fill xr 0 width 0.;
        Array.fill xi 0 width 0.
      end
    done;
    Fft.forward_columns ~cols:width down ~re ~im;
    (* keep one quadrant, by frequency, with the inverse's 1/(l1 l2)
       folded in.  [fold] maps a bit-reversed spectrum index to its
       quadrant index. *)
    let scale = 1. /. float_of_int (l1 * l2) and quadrant = table in
    for f1 = 0 to l1 / 2 do
      let xr = re.(Fft.reversed down f1) and xi = im.(Fft.reversed down f1) in
      let q = quadrant.(f1) in
      for f2 = 0 to l2 / 2 do
        q.(f2) <- scale *. (if f2 land 1 = 0 then xr.(f2 / 2) else xi.(f2 / 2))
      done
    done;
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
    (* [column plane k j]: sum of plane over part j's cells, into S(j, k) *)
    let column plane k j =
      let cj = cells.(j) and acc = ref 0. in
      for x = 0 to Array.length cj - 1 do
        acc := !acc +. plane.(cj.(x) lsr b2).(cj.(x) land mask)
      done;
      sums.(j).(k) <- sign t j *. sign t k *. !acc
    in
    let live = rows.lines and half1 = Int.max 1 (l1 / 2) and half2 = Int.max 1 (l2 / 2) in
    for pair = 0 to (m - 1) / 2 do
      let a = transformed.(2 * pair) and paired = (2 * pair) + 1 < m in
      let b = if paired then transformed.((2 * pair) + 1) else a in
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
      (* re is now R * 1_a and im is R * 1_b: their columns over every
         part the sums need; a direct part's row is mirrored here *)
      let columns plane k =
        Array.iter
          (fun j ->
             column plane k j;
             sums.(k).(j) <- sums.(j).(k))
          direct;
        Array.iter (column plane k) transformed
      in
      columns re a;
      if paired then columns im b
    done;
    (* two transformed parts see each other from both columns, which
       agree up to rounding; average them so the matrix is exactly
       symmetric *)
    for x = 0 to m - 1 do
      for y = x + 1 to m - 1 do
        let j = transformed.(x) and k = transformed.(y) in
        let s = 0.5 *. (sums.(j).(k) +. sums.(k).(j)) in
        sums.(j).(k) <- s;
        sums.(k).(j) <- s
      done
    done
  end;
  (* the derived part: S(j, D) = T_j - sum_{k <> D} S(j, k), and
     S(D, D) = T_D - sum_{k <> D} S(k, D) with T_D = total - sum T_k *)
  if derived < caps then begin
    let d = derived and t_d = ref !total and cross = ref 0. in
    let derive j =
      let s = ref totals.(j) and row = sums.(j) in
      for x = 0 to Array.length direct - 1 do
        s := !s -. row.(direct.(x))
      done;
      for x = 0 to m - 1 do
        s := !s -. row.(transformed.(x))
      done;
      row.(d) <- !s;
      sums.(d).(j) <- !s;
      t_d := !t_d -. totals.(j);
      cross := !cross +. !s
    in
    Array.iter derive direct;
    Array.iter derive transformed;
    sums.(d).(d) <- !t_d -. !cross
  end;
  Array.init caps (fun j -> Array.sub sums.(j) 0 caps)
