(* Tests for the variation models of Sec. II-C and the FFT under the
   lattice covariance kernel. *)

let check_float = Alcotest.(check (float 1e-9))
let tech = Tech.Process.finfet_12nm
let point ~x ~y = Geom.Point.make ~x ~y

let flat_tech = { tech with Tech.Process.gradient_ppm = 0. }

(* --- gradient --- *)

let test_gradient_at_origin () =
  check_float "t0/t0 = 1" 1. (Capmodel.Gradient.thickness_ratio tech Geom.Point.origin);
  check_float "Cu at origin" tech.Tech.Process.unit_cap
    (Capmodel.Gradient.unit_value tech Geom.Point.origin)

let test_gradient_zero_everywhere () =
  let p = point ~x:123. ~y:(-45.) in
  check_float "flat process" tech.Tech.Process.unit_cap
    (Capmodel.Gradient.unit_value flat_tech p)

let test_gradient_direction () =
  (* along theta the thickness grows, so the capacitor shrinks *)
  let theta = 0. in
  let up = Capmodel.Gradient.unit_value tech ~theta (point ~x:10. ~y:0.) in
  let down = Capmodel.Gradient.unit_value tech ~theta (point ~x:(-10.) ~y:0.) in
  Alcotest.(check bool) "smaller uphill" true (up < tech.Tech.Process.unit_cap);
  Alcotest.(check bool) "larger downhill" true (down > tech.Tech.Process.unit_cap)

let test_gradient_orthogonal_invisible () =
  (* a displacement orthogonal to theta does not change the value *)
  let theta = 0. in
  check_float "orthogonal" tech.Tech.Process.unit_cap
    (Capmodel.Gradient.unit_value tech ~theta (point ~x:0. ~y:42.))

let test_gradient_mirror_pair_nearly_cancels () =
  (* the CC principle: a mirrored pair cancels the linear gradient to
     first order; only a tiny second-order residue remains *)
  let p = point ~x:8. ~y:5. in
  let pair = [| p; Geom.Point.neg p |] in
  let shift = Capmodel.Gradient.systematic_shift tech pair in
  let single =
    Float.abs (Capmodel.Gradient.systematic_shift tech [| p |])
  in
  Alcotest.(check bool) "pair residue << single shift" true
    (Float.abs shift < single /. 100.)

let test_gradient_capacitor_value_sums () =
  let ps = [| point ~x:1. ~y:1.; point ~x:(-1.) ~y:(-1.) |] in
  let v = Capmodel.Gradient.capacitor_value flat_tech ps in
  check_float "2 Cu" (2. *. tech.Tech.Process.unit_cap) v

let test_worst_theta () =
  (* objective peaked at pi/2 *)
  let theta, value =
    Capmodel.Gradient.worst_theta ~samples:180
      ~objective:(fun th -> sin th)
  in
  Alcotest.(check bool) "near pi/2" true (Float.abs (theta -. (Float.pi /. 2.)) < 0.05);
  Alcotest.(check bool) "value near 1" true (value > 0.999)

let test_worst_theta_bad_samples () =
  Alcotest.check_raises "samples 0"
    (Invalid_argument "Gradient.worst_theta: samples must be >= 1")
    (fun () ->
       ignore (Capmodel.Gradient.worst_theta ~samples:0 ~objective:(fun _ -> 0.)))

(* --- correlation --- *)

let test_correlation_self () =
  let p = point ~x:3. ~y:4. in
  check_float "rho(A,A) = 1" 1. (Capmodel.Mismatch.correlation tech p p)

let test_correlation_decays () =
  let o = Geom.Point.origin in
  let near = Capmodel.Mismatch.correlation tech o (point ~x:1. ~y:0.) in
  let far = Capmodel.Mismatch.correlation tech o (point ~x:30. ~y:0.) in
  Alcotest.(check bool) "near > far" true (near > far);
  Alcotest.(check bool) "bounded" true (near < 1. && far > 0.)

let test_correlation_at_lc () =
  (* at distance L_c the correlation equals rho_u by Eq. 4-5 *)
  let d = tech.Tech.Process.corr_length in
  check_float "rho_u at Lc" tech.Tech.Process.rho_u
    (Capmodel.Mismatch.correlation tech Geom.Point.origin (point ~x:d ~y:0.))

let test_pair_sums () =
  let ps = [| point ~x:0. ~y:0.; point ~x:1. ~y:0. |] in
  let qs = [| point ~x:0. ~y:1. |] in
  let s_pq = Capmodel.Mismatch.pair_sum tech ps qs in
  let expected =
    Capmodel.Mismatch.correlation tech ps.(0) qs.(0)
    +. Capmodel.Mismatch.correlation tech ps.(1) qs.(0)
  in
  check_float "S_pq" expected s_pq;
  let s_p = Capmodel.Mismatch.intra_sum tech ps in
  check_float "S_p single pair"
    (Capmodel.Mismatch.correlation tech ps.(0) ps.(1))
    s_p

(* --- covariance --- *)

let square_positions =
  (* two capacitors, two cells each, on a small square *)
  [| [| point ~x:0. ~y:0.; point ~x:2. ~y:2. |];
     [| point ~x:0. ~y:2.; point ~x:2. ~y:0. |] |]

let test_covariance_symmetric () =
  let cov = Capmodel.Covariance.build tech square_positions in
  check_float "symmetry"
    (Capmodel.Covariance.covariance cov 0 1)
    (Capmodel.Covariance.covariance cov 1 0);
  Alcotest.(check int) "size" 2 (Capmodel.Covariance.size cov)

let test_covariance_diag_is_variance () =
  let cov = Capmodel.Covariance.build tech square_positions in
  check_float "diag" (Capmodel.Covariance.variance cov 0)
    (Capmodel.Covariance.covariance cov 0 0)

let test_variance_formula () =
  (* sigma_p^2 = sigma_u^2 (p + 2 S_p), Eq. 6 *)
  let cov = Capmodel.Covariance.build tech square_positions in
  let sigma2_u =
    let s = Tech.Process.sigma_u tech in
    s *. s
  in
  let s_p = Capmodel.Mismatch.intra_sum tech square_positions.(0) in
  check_float "Eq. 6" (sigma2_u *. (2. +. (2. *. s_p)))
    (Capmodel.Covariance.variance cov 0)

let test_sigma_of_subset () =
  let cov = Capmodel.Covariance.build tech square_positions in
  let s01 = Capmodel.Covariance.sigma_of_subset cov [ 0; 1 ] in
  let expected =
    sqrt
      (Capmodel.Covariance.variance cov 0
       +. Capmodel.Covariance.variance cov 1
       +. (2. *. Capmodel.Covariance.covariance cov 0 1))
  in
  check_float "subset sigma" expected s01

let test_sigma_weighted_matches_subset () =
  let cov = Capmodel.Covariance.build tech square_positions in
  let subset = Capmodel.Covariance.sigma_of_subset cov [ 0; 1 ] in
  let weighted = Capmodel.Covariance.sigma_weighted cov [ (0, 1.); (1, 1.) ] in
  check_float "weighted = subset with unit weights" subset weighted

let test_sigma_weighted_difference_smaller () =
  (* correlated capacitors: the difference has less variance than the sum *)
  let cov = Capmodel.Covariance.build tech square_positions in
  let sum = Capmodel.Covariance.sigma_weighted cov [ (0, 1.); (1, 1.) ] in
  let diff = Capmodel.Covariance.sigma_weighted cov [ (0, 1.); (1, -1.) ] in
  Alcotest.(check bool) "diff < sum" true (diff < sum)

let test_covariance_bad_index () =
  let cov = Capmodel.Covariance.build tech square_positions in
  Alcotest.check_raises "index"
    (Invalid_argument "Covariance: capacitor index out of range")
    (fun () -> ignore (Capmodel.Covariance.variance cov 5))

(* --- lattice kernel vs the pair-sum oracle ---

   The FFT kernel is exact up to float rounding, not bitwise equal to the
   pair enumeration, which sums each cell's pairs apart before adding
   them.  Observed relative disagreement: 2.3e-15 up to 4 bits and
   1.5e-14 up to 10 over every style, 6.3e-15 for the General banks,
   2.1e-15 over 4,000 random lattice cell sets, 1.7e-15 over 800 wide
   sparse ones and 2.3e-14 over 10,000 random label grids up to 32 x 32
   (3.7e-14 at 12 bits and 3.9e-14 at 13, which no test runs).  Every
   entry must agree to 10 times the worst of these. *)

let oracle_tol = 2.3e-13

(* s.(j).(k) by enumerating every pair of cells, in Covariance's order
   (lower index first) so the off-lattice path matches it bitwise *)
let pairwise_sums positions =
  Array.mapi
    (fun j ps ->
       Array.mapi
         (fun k qs ->
            if j = k then
              float_of_int (Array.length ps) +. (2. *. Capmodel.Mismatch.intra_sum tech ps)
            else if j < k then Capmodel.Mismatch.pair_sum tech ps qs
            else Capmodel.Mismatch.pair_sum tech qs ps)
         positions)
    positions

let lattice_sums positions =
  match Capmodel.Lattice.of_positions tech positions with
  | Some lattice -> Capmodel.Lattice.correlation_sums tech lattice
  | None -> Alcotest.fail "positions should lie on the lattice"

let check_kernels_agree what positions =
  let lat = lattice_sums positions and pw = pairwise_sums positions in
  let n = Array.length pw in
  for j = 0 to n - 1 do
    for k = 0 to n - 1 do
      let a = lat.(j).(k) and b = pw.(j).(k) in
      if Float.abs (a -. b) > oracle_tol *. Float.abs b then
        Alcotest.failf "%s: s(%d,%d) lattice %.17g, pairwise %.17g" what j k a b;
      if not (Float.equal a lat.(k).(j)) then
        Alcotest.failf "%s: lattice s(%d,%d) not symmetric" what j k
    done
  done

(* every style's placements at 2-10 bits: transform lengths 4 to 64 *)
let test_lattice_matches_pairwise () =
  for bits = 2 to 10 do
    List.iter
      (fun style ->
         let p = Ccplace.Style.place ~bits style in
         check_kernels_agree
           (Printf.sprintf "%s %d-bit" (Ccplace.Style.name style) bits)
           (Ccgrid.Placement.positions_by_cap tech p))
      ([ Ccplace.Style.Spiral; Ccplace.Style.Chessboard; Ccplace.Style.Rowwise ]
       @ if bits >= 3 then Ccplace.Style.block_family ~bits else [])
  done

let test_lattice_general_weights () =
  (* arbitrary ratios, incl. a thermometer bank, through the General placer *)
  List.iter
    (fun counts ->
       let p = Ccplace.General.clustered ~counts in
       check_kernels_agree "general" (Ccgrid.Placement.positions_by_cap tech p))
    [ [| 1; 1; 2; 4; 8; 16; 16; 16 |]; [| 3; 5; 7; 11 |] ]

(* cells at half-pitch lattice offsets (u, v): u rows down, v columns across *)
let lattice_positions caps =
  let hx = Tech.Process.cell_pitch_x tech /. 2.
  and hy = Tech.Process.cell_pitch_y tech /. 2. in
  Array.of_list
    (List.map
       (fun cells ->
          Array.of_list
            (List.map
               (fun (u, v) -> point ~x:(float_of_int v *. hx) ~y:(float_of_int u *. hy))
               cells))
       caps)

let test_lattice_degenerate_axes () =
  (* axes of 1 and 2 lines (transform lengths 1 and 4), 3 lines (a zero
     padding row inside the first half), strides above 1, and odd
     capacitor counts (an empty imaginary half) *)
  let line k f = List.init k f in
  List.iter
    (fun (what, caps) -> check_kernels_agree what (lattice_positions caps))
    [ ("one cell", [ [ (0, 0) ] ]);
      ("one repeated cell", [ [ (5, -3); (5, -3) ]; [ (5, -3) ] ]);
      ("1-line row", [ line 5 (fun i -> (0, i)); line 3 (fun i -> (0, i + 5)) ]);
      ("1-line column", [ line 4 (fun i -> (i, 7)); [ (9, 7) ]; [ (4, 7) ] ]);
      ("2-line axes", [ [ (0, 0); (1, 1) ]; [ (0, 1) ]; [ (1, 0) ] ]);
      ("2 x 9", [ line 9 (fun i -> (i mod 2, i)); line 5 (fun i -> (1 - (i mod 2), 2 * i)) ]);
      ("3 lines", [ [ (0, 0); (2, 2) ]; [ (1, 1) ]; [ (0, 2); (2, 0) ]; [ (1, 0) ]; [ (2, 1) ] ]);
      ("stride 2 x 3", [ line 6 (fun i -> (2 * (i / 3), 3 * (i mod 3))); [ (4, 9); (-2, 0) ] ]);
      ("stride 3, 1 line", [ line 5 (fun i -> (-6, 3 * i)); [ (-6, 30) ]; [ (-6, -3) ] ]);
      ("stride 4, 2 lines", [ [ (0, 0); (4, 0) ]; [ (0, 4); (4, 4) ]; [ (4, 8) ] ]) ]

let test_covariance_kernel_choice () =
  (* build uses the lattice kernel for every input on the lattice, down
     to the smallest array, and the pair sum off the lattice or over the
     transform-grid cap; the kernel transforms only the parts its cost
     model does not sum directly, and never the largest *)
  let sigma2_u = Tech.Process.sigma_u tech *. Tech.Process.sigma_u tech in
  let built_from sums positions =
    let cov = Capmodel.Covariance.build tech positions in
    let n = Capmodel.Covariance.size cov in
    List.for_all
      (fun (j, k) ->
         Float.equal (Capmodel.Covariance.covariance cov j k) (sigma2_u *. sums.(j).(k)))
      (List.concat_map (fun j -> List.init n (fun k -> (j, k))) (List.init n Fun.id))
  in
  let spiral bits =
    Ccgrid.Placement.positions_by_cap tech (Ccplace.Style.place ~bits Ccplace.Style.Spiral)
  in
  Alcotest.(check bool) "10-bit: lattice" true
    (built_from (lattice_sums (spiral 10)) (spiral 10));
  Alcotest.(check bool) "4-bit: lattice" true
    (built_from (lattice_sums (spiral 4)) (spiral 4));
  Alcotest.(check bool) "2-bit: lattice" true
    (built_from (lattice_sums (spiral 2)) (spiral 2));
  (* at 4 bits C_0..C_3 (8 cells) are summed directly and C_4 is
     derived: 8 * 7 / 2 lookups and no transform *)
  Alcotest.(check int) "lattice work counted: 4-bit lookups" 28
    (Capmodel.Covariance.direct_lookups (Capmodel.Covariance.build tech (spiral 4)));
  (* at 12 bits (G = 128 x 128) C_0..C_7 (128 cells) are summed
     directly, C_8..C_11 go through R's transform and 2 pairs, and C_12
     is derived: (1 + 2 * 2) * 2^14 points, 128 * 127 / 2 lookups *)
  let cov12 = Capmodel.Covariance.build tech (spiral 12) in
  Alcotest.(check int) "12-bit: 5 transforms of 128 x 128" 81_920
    (Capmodel.Covariance.transform_points cov12);
  Alcotest.(check int) "12-bit: lookups" 8_128 (Capmodel.Covariance.direct_lookups cov12);
  Alcotest.(check int) "2-bit: no transform" 0
    (Capmodel.Covariance.transform_points (Capmodel.Covariance.build tech (spiral 2)));
  let off = [| [| point ~x:0.1234 ~y:0. |]; [| point ~x:0. ~y:0. |] |] in
  Alcotest.(check bool) "off-lattice input is not a lattice" true
    (Option.is_none (Capmodel.Lattice.of_positions tech off));
  Alcotest.(check bool) "off-lattice: pair sum" true (built_from (pairwise_sums off) off);
  Alcotest.(check int) "pair sum counts no transform points" 0
    (Capmodel.Covariance.transform_points (Capmodel.Covariance.build tech off));
  Alcotest.(check int) "pair sum counts no lookups" 0
    (Capmodel.Covariance.direct_lookups (Capmodel.Covariance.build tech off));
  (* unit stride over 2^12 half-pitches on both axes: an 8192 x 8192 grid *)
  let wide = lattice_positions [ [ (0, 0); (1, 1) ]; [ (4096, 4096) ] ] in
  Alcotest.(check bool) "over the grid cap: pair sum" true
    (Option.is_none (Capmodel.Lattice.of_positions tech wide)
     && built_from (pairwise_sums wide) wide)

(* The remainder and the split, each against the pair sum.  The work
   counts show which parts were summed directly and which transformed:
   [s] direct cells make [s (s - 1) / 2] lookups, and [m] transformed
   parts on [G] points make [(1 + 2 ceil (m / 2)) G] transform points. *)
let work positions =
  let cov = Capmodel.Covariance.build tech positions in
  (Capmodel.Covariance.direct_lookups cov, Capmodel.Covariance.transform_points cov)

let check_work what positions ~lookups ~points =
  check_kernels_agree what positions;
  Alcotest.(check (pair int int)) (what ^ ": lookups, points") (lookups, points)
    (work positions)

let test_lattice_dummies () =
  (* a 6-bit spiral with 5 cells of C_6 made dummies: the remainder's 5
     holes are summed directly with C_0..C_5 (32 + 5 cells) *)
  let p = Ccplace.Style.place ~bits:6 Ccplace.Style.Spiral in
  let assign = Array.map Array.copy p.Ccgrid.Placement.assign in
  let cleared = ref 0 in
  Array.iteri
    (fun r row ->
       Array.iteri
         (fun c id ->
            if id = 6 && !cleared < 5 && (r + c) mod 3 = 0 then begin
              assign.(r).(c) <- Ccgrid.Placement.dummy;
              incr cleared
            end)
         row)
    assign;
  let counts = Array.copy p.Ccgrid.Placement.counts in
  counts.(6) <- counts.(6) - 5;
  let q =
    Ccgrid.Placement.create ~bits:6 ~rows:p.Ccgrid.Placement.rows
      ~cols:p.Ccgrid.Placement.cols ~unit_multiplier:1 ~counts ~assign ~style_name:"dummies"
  in
  check_work "6-bit spiral with 5 dummies" (Ccgrid.Placement.positions_by_cap tech q)
    ~lookups:(37 * 36 / 2) ~points:0

let test_lattice_sparse () =
  (* 7 cells on a 41 x 61 lattice (128 x 128 transform points): the
     holes are the largest part and no capacitor needs them, so every
     capacitor is summed directly *)
  check_work "sparse"
    (lattice_positions
       [ [ (0, 0); (1, 1); (0, 5) ]; [ (40, 60) ]; [ (17, 3); (22, 9); (22, 9) ] ])
    ~lookups:21 ~points:0

let test_lattice_repeated () =
  (* repeated cells give the remainder negative weights *)
  let square k = List.init (k * k) (fun i -> (i / k, i mod k)) in
  (* a full 4 x 4 capacitor is derived; the 3 extra copies are summed
     directly with the 3 cells of the small capacitors *)
  check_work "extra copies summed directly"
    (lattice_positions [ square 4; [ (0, 0); (0, 0) ]; [ (1, 1) ] ])
    ~lookups:15 ~points:0;
  (* a full 32 x 32 capacitor is derived; two capacitors of 300 repeated
     cells and the 600 extra copies are all transformed: no direct part *)
  let band lo = List.init 300 (fun i -> ((lo + i) / 32, (lo + i) mod 32)) in
  check_work "extra copies transformed"
    (lattice_positions [ square 32; band 0; band 500 ])
    ~lookups:0 ~points:((1 + 4) * 64 * 64)

let test_lattice_splits () =
  (* all direct: a 6-bit spiral sums C_0..C_5 (32 cells) and derives C_6 *)
  check_work "all direct"
    (Ccgrid.Placement.positions_by_cap tech (Ccplace.Style.place ~bits:6 Ccplace.Style.Spiral))
    ~lookups:(32 * 31 / 2) ~points:0;
  (* no direct part: half of a 32 x 32 grid is derived, the two quarters
     of the other half share one transform pair *)
  let cells f = List.filter f (List.init 1024 (fun i -> (i / 32, i mod 32))) in
  check_work "no direct part"
    (lattice_positions
       [ cells (fun (r, c) -> (r + c) mod 2 = 0);
         cells (fun (r, c) -> (r + c) mod 2 = 1 && r < 16);
         cells (fun (r, c) -> (r + c) mod 2 = 1 && r >= 16) ])
    ~lookups:0 ~points:(3 * 64 * 64)

(* --- fft (the lattice kernel's transform) ---

   Every power of two from 1 to 1024 against an O(n^2) DFT: the forward
   transform read through the bit reversal, the inverse fed a spectrum in
   that order, their round trip, the pruned halves, and the column pass
   against per-column 1-D transforms. *)

let check_fft = Alcotest.(check (float 1e-6))

let fft_lengths = List.init 11 (fun k -> 1 lsl k)

(* X(f) = sum_k x(k) e^(sign 2 pi i f k / n), in natural order *)
let naive_dft ~sign re im =
  let n = Array.length re in
  let c = Array.init n (fun m -> cos (2. *. Float.pi *. float_of_int m /. float_of_int n)) in
  let s = Array.init n (fun m -> sign *. sin (2. *. Float.pi *. float_of_int m /. float_of_int n)) in
  let xr = Array.make n 0. and xi = Array.make n 0. in
  for f = 0 to n - 1 do
    for k = 0 to n - 1 do
      let m = f * k mod n in
      xr.(f) <- xr.(f) +. (re.(k) *. c.(m)) -. (im.(k) *. s.(m));
      xi.(f) <- xi.(f) +. (re.(k) *. s.(m)) +. (im.(k) *. c.(m))
    done
  done;
  (xr, xi)

(* the inputs the natural-order tests used, at every length *)
let fft_inputs n =
  let t i = float_of_int i and fn = float_of_int n in
  [ ("impulse", Array.init n (fun i -> if i = 0 then 1. else 0.), Array.make n 0.);
    ("tone", Array.init n (fun i -> cos (2. *. Float.pi *. 3. *. t i /. fn)), Array.make n 0.);
    ("sine", Array.init n (fun i -> sin (0.3 *. t i) +. 0.1), Array.make n 0.);
    ( "complex",
      Array.init n (fun i -> Float.rem (t (i * 37)) 11. -. 5.),
      Array.init n (fun i -> cos (1.3 *. t i) -. (0.01 *. t i)) ) ]

let fft_tol re im = 1e-12 *. (1. +. Array.fold_left (fun a x -> a +. Float.abs x) 0. re
                                    +. Array.fold_left (fun a x -> a +. Float.abs x) 0. im)

let check_close what tol (er, ei) (ar, ai) =
  Array.iteri
    (fun i e ->
       if Float.abs (e -. ar.(i)) > tol || Float.abs (ei.(i) -. ai.(i)) > tol then
         Alcotest.failf "%s: entry %d is (%g, %g), expected (%g, %g)" what i ar.(i) ai.(i) e
           ei.(i))
    er

let forward ?half re im =
  let re = Array.copy re and im = Array.copy im in
  Capmodel.Fft.forward ?half (Capmodel.Fft.plan (Array.length re)) ~re ~im;
  (re, im)

let inverse ?half re im =
  let re = Array.copy re and im = Array.copy im in
  Capmodel.Fft.inverse ?half (Capmodel.Fft.plan (Array.length re)) ~re ~im;
  (re, im)

(* natural order from bit-reversed, and back *)
let unscramble (re, im) =
  let p = Capmodel.Fft.plan (Array.length re) in
  let at a = Array.init (Array.length a) (fun f -> a.(Capmodel.Fft.reversed p f)) in
  (at re, at im)

let scramble = unscramble (* bit reversal is an involution *)

let test_fft_forward_naive () =
  List.iter
    (fun n ->
       List.iter
         (fun (what, re, im) ->
            check_close (Printf.sprintf "%s n=%d" what n) (fft_tol re im)
              (naive_dft ~sign:(-1.) re im)
              (unscramble (forward re im)))
         (fft_inputs n))
    fft_lengths

let test_fft_inverse_naive () =
  List.iter
    (fun n ->
       List.iter
         (fun (what, re, im) ->
            (* the inputs taken as a spectrum, fed in bit-reversed order *)
            let sr, si = scramble (re, im) in
            check_close (Printf.sprintf "%s n=%d" what n) (fft_tol re im)
              (naive_dft ~sign:1. re im) (inverse sr si))
         (fft_inputs n))
    fft_lengths

let test_fft_pruned_halves () =
  (* forward ~half reads only the first half; inverse ~half computes it *)
  List.iter
    (fun n ->
       let h = Int.max 1 (n / 2) in
       List.iter
         (fun (what, re, im) ->
            let what = Printf.sprintf "%s n=%d" what n in
            let zr = Array.mapi (fun i x -> if i < h then x else 0.) re
            and zi = Array.mapi (fun i x -> if i < h then x else 0.) im in
            let gr = Array.mapi (fun i x -> if i < h then x else 1e3 +. float_of_int i) re
            and gi = Array.mapi (fun i x -> if i < h then x else -7. -. float_of_int i) im in
            check_close (what ^ " forward") 0. (forward zr zi) (forward ~half:true gr gi);
            let fr, fi = inverse re im and pr, pi = inverse ~half:true re im in
            check_close (what ^ " inverse") 0. (Array.sub fr 0 h, Array.sub fi 0 h)
              (Array.sub pr 0 h, Array.sub pi 0 h))
         (fft_inputs n))
    fft_lengths

let test_fft_columns () =
  (* the column pass over whole rows is bitwise the per-column transform *)
  List.iter
    (fun (n, width) ->
       let p = Capmodel.Fft.plan n and h = Int.max 1 (n / 2) in
       let cell r c = sin (float_of_int ((r * 31) + (c * 7))) in
       let re = Array.init n (fun r -> Array.init width (fun c -> cell r c)) in
       let im = Array.init n (fun r -> Array.init width (fun c -> cell c r)) in
       let column m c = Array.init n (fun r -> m.(r).(c)) in
       List.iter
         (fun (what, live, rows, one) ->
            let rr = Array.map Array.copy re and ri = Array.map Array.copy im in
            rows ~re:rr ~im:ri;
            for c = 0 to width - 1 do
              let cr = column re c and ci = column im c in
              one ~re:cr ~im:ci;
              check_close
                (Printf.sprintf "%s n=%d column %d" what n c) 0.
                (Array.sub cr 0 live, Array.sub ci 0 live)
                (Array.sub (column rr c) 0 live, Array.sub (column ri c) 0 live)
            done)
         [ ("forward", n, Capmodel.Fft.forward_columns p, Capmodel.Fft.forward p);
           ("inverse", n, Capmodel.Fft.inverse_columns p, Capmodel.Fft.inverse p);
           ( "half forward", n, Capmodel.Fft.forward_columns ~half:true p,
             Capmodel.Fft.forward ~half:true p );
           ( "half inverse", h, Capmodel.Fft.inverse_columns ~half:true p,
             Capmodel.Fft.inverse ~half:true p ) ])
    [ (1, 3); (2, 1); (4, 5); (8, 2); (16, 3); (32, 1); (64, 4); (128, 2); (512, 3) ]

let test_fft_column_bound () =
  (* ~cols:w transforms the first w columns exactly as the per-column
     transform does and leaves the others bitwise untouched *)
  List.iter
    (fun (n, width) ->
       let p = Capmodel.Fft.plan n in
       let cell r c = cos (float_of_int ((r * 13) + (c * 5))) in
       let re = Array.init n (fun r -> Array.init width (fun c -> cell r c)) in
       let im = Array.init n (fun r -> Array.init width (fun c -> cell c r)) in
       let column m c = Array.init n (fun r -> m.(r).(c)) in
       List.iter
         (fun (half, w) ->
            let rr = Array.map Array.copy re and ri = Array.map Array.copy im in
            Capmodel.Fft.forward_columns ~half ~cols:w p ~re:rr ~im:ri;
            for c = 0 to width - 1 do
              let what = Printf.sprintf "n=%d w=%d half=%b column %d" n w half c in
              let cr = column re c and ci = column im c in
              if c < w then Capmodel.Fft.forward ~half p ~re:cr ~im:ci;
              check_close what 0. (cr, ci) (column rr c, column ri c)
            done)
         [ (false, 0); (false, 1); (false, width - 1); (false, width); (true, 1);
           (true, width - 1) ])
    [ (1, 3); (2, 2); (4, 5); (8, 3); (16, 4); (128, 3); (256, 2) ];
  let p = Capmodel.Fft.plan 4 in
  let rows () = Array.init 4 (fun _ -> Array.make 3 0.) in
  Alcotest.check_raises "bound past the rows"
    (Invalid_argument "Fft: column bound outside the rows")
    (fun () -> Capmodel.Fft.forward_columns ~cols:4 p ~re:(rows ()) ~im:(rows ()));
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Fft: column bound outside the rows")
    (fun () -> Capmodel.Fft.forward_columns ~cols:(-1) p ~re:(rows ()) ~im:(rows ()))

let test_fft_impulse () =
  (* the DFT of an impulse is flat, in any order *)
  List.iter
    (fun n ->
       let re = Array.init n (fun i -> if i = 0 then 1. else 0.) in
       let fr, fi = forward re (Array.make n 0.) in
       check_close (Printf.sprintf "impulse n=%d" n) 1e-15
         (Array.make n 1., Array.make n 0.) (fr, fi))
    fft_lengths

let test_fft_single_tone () =
  (* cos(2 pi 3 t): energy only in bins 3 and n-3 *)
  List.iter
    (fun n ->
       let re =
         Array.init n (fun i -> cos (2. *. Float.pi *. 3. *. float_of_int i /. float_of_int n))
       in
       let fr, fi = unscramble (forward re (Array.make n 0.)) in
       for k = 0 to n - 1 do
         let m = Float.hypot fr.(k) fi.(k) in
         if k = 3 || k = n - 3 then check_fft "tone bin" (float_of_int n /. 2.) m
         else if m > 1e-9 then Alcotest.failf "n=%d: leakage at bin %d: %g" n k m
       done)
    (List.filter (fun n -> n >= 8) fft_lengths)

let test_fft_roundtrip () =
  (* inverse (forward x) = n x *)
  List.iter
    (fun n ->
       List.iter
         (fun (what, re, im) ->
            let fr, fi = forward re im in
            let scale = Array.map (fun x -> float_of_int n *. x) in
            check_close (Printf.sprintf "%s n=%d" what n) (fft_tol re im *. float_of_int n)
              (scale re, scale im) (inverse fr fi))
         (fft_inputs n))
    fft_lengths

let test_fft_parseval () =
  (* sum |x|^2 = (1/n) sum |X|^2, in any order *)
  List.iter
    (fun n ->
       List.iter
         (fun (what, re, im) ->
            let energy re im =
              let e = ref 0. in
              Array.iteri (fun i x -> e := !e +. (x *. x) +. (im.(i) *. im.(i))) re;
              !e
            in
            let fr, fi = forward re im in
            let time = energy re im and freq = energy fr fi /. float_of_int n in
            if Float.abs (time -. freq) > 1e-12 *. time then
              Alcotest.failf "%s n=%d: parseval %g vs %g" what n time freq)
         (fft_inputs n))
    fft_lengths

let test_fft_rejects_bad_length () =
  let rejects f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "non power of two" true (rejects (fun () -> ignore (Capmodel.Fft.plan 6)));
  Alcotest.(check bool) "zero" true (rejects (fun () -> ignore (Capmodel.Fft.plan 0)));
  let p = Capmodel.Fft.plan 8 in
  Alcotest.(check bool) "mismatch" true
    (rejects (fun () -> Capmodel.Fft.forward p ~re:(Array.make 8 0.) ~im:(Array.make 4 0.)));
  Alcotest.(check bool) "wrong length for the plan" true
    (rejects (fun () -> Capmodel.Fft.inverse p ~re:(Array.make 16 0.) ~im:(Array.make 16 0.)));
  Alcotest.(check bool) "ragged rows" true
    (rejects (fun () ->
         Capmodel.Fft.forward_columns p
           ~re:(Array.init 8 (fun r -> Array.make (if r = 5 then 2 else 3) 0.))
           ~im:(Array.init 8 (fun _ -> Array.make 3 0.))))

(* --- properties --- *)

let coord = QCheck.Gen.float_range (-30.) 30.

let positions_arb =
  (* 2-4 capacitors with 1-6 cells each *)
  let open QCheck.Gen in
  let cell = pair coord coord in
  let capacitor = list_size (int_range 1 6) cell in
  let gen = list_size (int_range 2 4) capacitor in
  QCheck.make gen

let to_positions caps =
  Array.of_list
    (List.map (fun cells ->
         Array.of_list (List.map (fun (x, y) -> point ~x ~y) cells))
       caps)

let prop_correlation_in_range =
  QCheck.Test.make ~name:"rho in (0,1]" ~count:300
    QCheck.(pair (pair (float_range (-50.) 50.) (float_range (-50.) 50.))
              (pair (float_range (-50.) 50.) (float_range (-50.) 50.)))
    (fun ((ax, ay), (bx, by)) ->
       let r =
         Capmodel.Mismatch.correlation tech (point ~x:ax ~y:ay) (point ~x:bx ~y:by)
       in
       r > 0. && r <= 1. +. 1e-12)

let prop_subset_sigma_nonneg =
  QCheck.Test.make ~name:"sigma of any subset >= 0" ~count:100 positions_arb
    (fun caps ->
       let positions = to_positions caps in
       let cov = Capmodel.Covariance.build tech positions in
       let n = Capmodel.Covariance.size cov in
       let all = List.init n (fun i -> i) in
       Capmodel.Covariance.sigma_of_subset cov all >= 0.)

let prop_weighted_sigma_nonneg =
  QCheck.Test.make ~name:"weighted sigma >= 0 (PSD-ish)" ~count:100
    (QCheck.pair positions_arb (QCheck.list_of_size (QCheck.Gen.return 4)
                                  (QCheck.float_range (-2.) 2.)))
    (fun (caps, ws) ->
       let positions = to_positions caps in
       let cov = Capmodel.Covariance.build tech positions in
       let n = Capmodel.Covariance.size cov in
       let weights =
         List.filteri (fun i _ -> i < n) ws |> List.mapi (fun i w -> (i, w))
       in
       Capmodel.Covariance.sigma_weighted cov weights >= 0.)

let prop_lattice_matches_pairwise =
  (* random cell sets on the half-pitch lattice: any shape, stride,
     offset or repeated cell *)
  let open QCheck.Gen in
  let cell = pair (int_range (-12) 12) (int_range (-12) 12) in
  let capacitor = list_size (int_range 1 12) cell in
  let gen = pair (pair (int_range 1 3) (int_range 1 3)) (list_size (int_range 1 5) capacitor) in
  QCheck.Test.make ~name:"lattice kernel = pair sum" ~count:200 (QCheck.make gen)
    (fun ((sx, sy), caps) ->
       let caps = List.map (List.map (fun (u, v) -> (sy * u, sx * v))) caps in
       check_kernels_agree "random lattice" (lattice_positions caps);
       true)

let prop_wide_lattice_matches_pairwise =
  (* few cells spread up to +-127 half-pitches: transform lengths up to
     512, both parities of log2, as 12-16-bit arrays use *)
  let open QCheck.Gen in
  let gen =
    pair (int_range 0 127) (int_range 0 127) >>= fun (eu, ev) ->
    let cell = pair (int_range (-eu) eu) (int_range (-ev) ev) in
    list_size (int_range 1 5) (list_size (int_range 1 8) cell)
  in
  QCheck.Test.make ~name:"wide sparse lattice = pair sum" ~count:40 (QCheck.make gen)
    (fun caps ->
       check_kernels_agree "wide lattice" (lattice_positions caps);
       true)

let prop_serial_grids_match_pairwise =
  (* random label grids through the text format, dummies ('.') included:
     labels drawn with binary weights so one capacitor is about half the
     array, as in a DAC, up to 32 x 32 cells (where the cost model
     transforms the second largest capacitor) *)
  let open QCheck.Gen in
  let gen =
    triple (int_range 1 6) (int_range 1 32) (int_range 1 32) >>= fun (bits, rows, cols) ->
    map
      (fun labels ->
         let counts = Array.make (bits + 1) 0 in
         let grid =
           List.map
             (fun row ->
                String.concat " "
                  (List.map
                     (fun draw ->
                        (* draw in [0, 2^(bits + 1)): the top half is C_bits,
                           the next quarter C_(bits-1), ...; the lowest
                           value is a dummy *)
                        let rec label k = if k = 0 || draw >= 1 lsl k then k else label (k - 1) in
                        if draw = 0 then "."
                        else begin
                          let id = label bits in
                          counts.(id) <- counts.(id) + 1;
                          String.make 1 (Ccgrid.Render.glyph id)
                        end)
                     row))
             labels
         in
         String.concat "\n"
           ([ "ccdac-placement v1";
              Printf.sprintf "bits %d rows %d cols %d multiplier 1 style random" bits rows cols;
              "counts " ^ String.concat " " (List.map string_of_int (Array.to_list counts)) ]
            @ grid)
         ^ "\n")
      (list_repeat rows (list_repeat cols (int_range 0 ((2 lsl bits) - 1))))
  in
  QCheck.Test.make ~name:"serial label grids = pair sum" ~count:100 (QCheck.make ~print:Fun.id gen)
    (fun text ->
       match Ccgrid.Serial.of_string text with
       | Error msg -> QCheck.Test.fail_reportf "generated grid rejected: %s" msg
       | Ok p ->
         let positions = Ccgrid.Placement.positions_by_cap tech p in
         if Array.exists (fun ps -> Array.length ps > 0) positions then
           check_kernels_agree "serial grid" positions;
         true)

let prop_fft_linearity =
  QCheck.Test.make ~name:"fft is linear" ~count:30
    QCheck.(pair (float_range (-3.) 3.) (float_range (-3.) 3.))
    (fun (a, b) ->
       let n = 16 in
       let zero = Array.make n 0. in
       let x = Array.init n (fun i -> sin (0.7 *. float_of_int i)) in
       let y = Array.init n (fun i -> cos (1.3 *. float_of_int i)) in
       let tx, _ = forward x zero and ty, _ = forward y zero in
       let tz, _ = forward (Array.init n (fun i -> (a *. x.(i)) +. (b *. y.(i)))) zero in
       let ok = ref true in
       for k = 0 to n - 1 do
         if Float.abs (tz.(k) -. ((a *. tx.(k)) +. (b *. ty.(k)))) > 1e-6 then
           ok := false
       done;
       !ok)

let () =
  Alcotest.run "capmodel"
    [ ( "gradient",
        [ Alcotest.test_case "origin" `Quick test_gradient_at_origin;
          Alcotest.test_case "zero gradient" `Quick test_gradient_zero_everywhere;
          Alcotest.test_case "direction" `Quick test_gradient_direction;
          Alcotest.test_case "orthogonal" `Quick test_gradient_orthogonal_invisible;
          Alcotest.test_case "mirror cancels" `Quick test_gradient_mirror_pair_nearly_cancels;
          Alcotest.test_case "value sums" `Quick test_gradient_capacitor_value_sums;
          Alcotest.test_case "worst theta" `Quick test_worst_theta;
          Alcotest.test_case "worst theta bad samples" `Quick test_worst_theta_bad_samples ] );
      ( "correlation",
        [ Alcotest.test_case "self" `Quick test_correlation_self;
          Alcotest.test_case "decays" `Quick test_correlation_decays;
          Alcotest.test_case "at Lc" `Quick test_correlation_at_lc;
          Alcotest.test_case "pair sums" `Quick test_pair_sums ] );
      ( "covariance",
        [ Alcotest.test_case "symmetric" `Quick test_covariance_symmetric;
          Alcotest.test_case "diag" `Quick test_covariance_diag_is_variance;
          Alcotest.test_case "Eq. 6" `Quick test_variance_formula;
          Alcotest.test_case "subset sigma" `Quick test_sigma_of_subset;
          Alcotest.test_case "weighted = subset" `Quick test_sigma_weighted_matches_subset;
          Alcotest.test_case "difference < sum" `Quick test_sigma_weighted_difference_smaller;
          Alcotest.test_case "bad index" `Quick test_covariance_bad_index ] );
      ( "lattice kernel",
        [ Alcotest.test_case "matches pair sum, 2-10 bits" `Quick
            test_lattice_matches_pairwise;
          Alcotest.test_case "general weights" `Quick test_lattice_general_weights;
          Alcotest.test_case "degenerate axes" `Quick test_lattice_degenerate_axes;
          Alcotest.test_case "kernel choice" `Quick test_covariance_kernel_choice;
          Alcotest.test_case "dummy cells" `Quick test_lattice_dummies;
          Alcotest.test_case "sparse: remainder derived" `Quick test_lattice_sparse;
          Alcotest.test_case "repeated cells" `Quick test_lattice_repeated;
          Alcotest.test_case "all direct, no direct part" `Quick test_lattice_splits ] );
      ( "fft",
        [ Alcotest.test_case "forward = naive DFT, 1-1024" `Quick test_fft_forward_naive;
          Alcotest.test_case "inverse = naive DFT, 1-1024" `Quick test_fft_inverse_naive;
          Alcotest.test_case "pruned halves" `Quick test_fft_pruned_halves;
          Alcotest.test_case "columns = per-column transforms" `Quick test_fft_columns;
          Alcotest.test_case "column bound" `Quick test_fft_column_bound;
          Alcotest.test_case "impulse" `Quick test_fft_impulse;
          Alcotest.test_case "single tone" `Quick test_fft_single_tone;
          Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "parseval" `Quick test_fft_parseval;
          Alcotest.test_case "bad length" `Quick test_fft_rejects_bad_length ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_correlation_in_range;
            prop_subset_sigma_nonneg;
            prop_weighted_sigma_nonneg;
            prop_lattice_matches_pairwise;
            prop_wide_lattice_matches_pairwise;
            prop_serial_grids_match_pairwise;
            prop_fft_linearity ] ) ]
