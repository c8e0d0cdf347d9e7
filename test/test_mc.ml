(* Tests for correlated Gaussian sampling and the Monte-Carlo linearity
   engine. *)

let tech = Tech.Process.finfet_12nm
let spiral8 = Ccplace.Spiral.place ~bits:8

(* --- cholesky --- *)

let test_cholesky_identity () =
  let l = Capmodel.Gauss.cholesky [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  Alcotest.(check (float 1e-6)) "l00" 1. l.(0).(0);
  Alcotest.(check (float 1e-6)) "l10" 0. l.(1).(0);
  Alcotest.(check (float 1e-6)) "l11" 1. l.(1).(1)

let test_cholesky_reconstructs () =
  let m = [| [| 4.; 2.; 0.5 |]; [| 2.; 5.; 1. |]; [| 0.5; 1.; 3. |] |] in
  let l = Capmodel.Gauss.cholesky m in
  let n = 3 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let v = ref 0. in
      for k = 0 to n - 1 do
        v := !v +. (l.(i).(k) *. l.(j).(k))
      done;
      if Float.abs (!v -. m.(i).(j)) > 1e-6 then
        Alcotest.failf "(%d,%d): %f vs %f" i j !v m.(i).(j)
    done
  done

let test_cholesky_rejects_non_psd () =
  Alcotest.(check bool) "negative definite" true
    (try ignore (Capmodel.Gauss.cholesky [| [| -1. |] |]); false
     with Invalid_argument _ -> true)

let test_cholesky_rejects_non_square () =
  Alcotest.(check bool) "ragged" true
    (try ignore (Capmodel.Gauss.cholesky [| [| 1.; 0. |]; [| 0. |] |]); false
     with Invalid_argument _ -> true)

let test_cholesky_handles_semidefinite () =
  (* perfectly correlated pair: singular but should factor with jitter *)
  let l = Capmodel.Gauss.cholesky [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  Alcotest.(check bool) "factors" true (l.(0).(0) > 0.)

(* --- standard normal --- *)

let test_standard_normal_moments () =
  let n = 20000 in
  let z = Array.make n 0. in
  Dacmodel.Montecarlo.standard_normals (Par.Rng.substream ~seed:42 ~index:0)
    ~u:(Array.make (2 * n) 0.) z;
  let sum = ref 0. and sum2 = ref 0. in
  Array.iter
    (fun z ->
       sum := !sum +. z;
       sum2 := !sum2 +. (z *. z))
    z;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.03);
  Alcotest.(check bool) "var ~ 1" true (Float.abs (var -. 1.) < 0.05)

(* --- sampler --- *)

let cov8 =
  lazy
    (Capmodel.Covariance.build tech
       (Ccgrid.Placement.positions_by_cap tech spiral8))

let factor8 = lazy (Capmodel.Gauss.factorize (Lazy.force cov8))

(* Trial [index] of [seed]'s capacitor shifts, drawn as the Monte-Carlo
   trials draw them. *)
let draw factor ~seed ~index =
  let n = Capmodel.Gauss.size factor in
  let z = Array.make n 0. and shifts = Array.make n 0. in
  Dacmodel.Montecarlo.standard_normals (Par.Rng.substream ~seed ~index)
    ~u:(Array.make (2 * n) 0.) z;
  Capmodel.Gauss.correlate factor z shifts;
  shifts

let test_sampler_dimensions () =
  let factor = Lazy.force factor8 in
  Alcotest.(check int) "9 capacitors" 9 (Capmodel.Gauss.size factor);
  Alcotest.(check int) "9 shifts" 9
    (Array.length (draw factor ~seed:0x5eed ~index:0));
  let rejects z shifts =
    try Capmodel.Gauss.correlate factor z shifts; false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "8 variates rejected" true
    (rejects (Array.make 8 0.) (Array.make 9 0.));
  Alcotest.(check bool) "10 shifts rejected" true
    (rejects (Array.make 9 0.) (Array.make 10 0.))

let test_sampler_reproducible () =
  let draw_first seed = draw (Lazy.force factor8) ~seed ~index:0 in
  Alcotest.(check bool) "same seed, same draw" true
    (draw_first 7 = draw_first 7);
  Alcotest.(check bool) "different seeds differ" true
    (draw_first 7 <> draw_first 8)

let test_sampler_variance_matches_model () =
  (* the MSB sample variance must approach sigma_N^2 from Eq. 6 *)
  let factor = Lazy.force factor8 in
  let n = 4000 in
  let sum2 = ref 0. in
  for index = 1 to n do
    let x = (draw factor ~seed:0x5eed ~index).(8) in
    sum2 := !sum2 +. (x *. x)
  done;
  let sample_var = !sum2 /. float_of_int n in
  let model_var = Capmodel.Covariance.variance (Lazy.force cov8) 8 in
  Alcotest.(check bool)
    (Printf.sprintf "sample %.4f vs model %.4f" sample_var model_var)
    true
    (Float.abs (sample_var -. model_var) /. model_var < 0.12)

(* The in-place draw against the one it replaced: Box-Muller on
   [Random.State.float] of the substream's reference state, then the
   factor's rows as fresh sums.  Every shift equal bit for bit. *)
let test_sampler_matches_random_state () =
  let factor = Capmodel.Gauss.cholesky (Array.init 9 (fun j ->
      Array.init 9 (fun k -> Capmodel.Covariance.covariance (Lazy.force cov8) j k)))
  in
  let reference ~seed ~index =
    let state = Par.Rng.state ~seed ~index in
    let z =
      Array.init 9 (fun _ ->
          let u1 = 1. -. Random.State.float state 1. in
          let u2 = Random.State.float state 1. in
          sqrt (-2. *. Float.log u1) *. cos (2. *. Float.pi *. u2))
    in
    Array.init 9 (fun i ->
        let acc = ref 0. in
        for k = 0 to i do
          acc := !acc +. (factor.(i).(k) *. z.(k))
        done;
        !acc)
  in
  List.iter
    (fun (seed, index) ->
       let got = draw (Lazy.force factor8) ~seed ~index
       and want = reference ~seed ~index in
       Array.iteri
         (fun k w ->
            if Int64.bits_of_float got.(k) <> Int64.bits_of_float w then
              Alcotest.failf "seed %d trial %d C_%d: %h vs reference %h" seed
                index k got.(k) w)
         want)
    (List.concat_map
       (fun seed -> List.init 50 (fun index -> (seed, index)))
       [ 0x5eed; 1; -3; max_int; 10_000 ])

(* --- montecarlo --- *)

let test_mc_fields_sane () =
  let mc = Dacmodel.Montecarlo.run tech ~trials:100 spiral8 in
  Alcotest.(check int) "trials" 100 mc.Dacmodel.Montecarlo.trials;
  Alcotest.(check bool) "yield in [0,1]" true
    (mc.Dacmodel.Montecarlo.yield >= 0. && mc.Dacmodel.Montecarlo.yield <= 1.);
  Alcotest.(check bool) "mean <= p95 <= max (INL)" true
    (mc.Dacmodel.Montecarlo.mean_inl <= mc.Dacmodel.Montecarlo.p95_inl +. 1e-9
     && mc.Dacmodel.Montecarlo.p95_inl <= mc.Dacmodel.Montecarlo.max_inl +. 1e-9)

let test_mc_reproducible () =
  let run () = Dacmodel.Montecarlo.run tech ~seed:3 ~trials:50 spiral8 in
  let a = run () and b = run () in
  Alcotest.(check (float 1e-12)) "deterministic" a.Dacmodel.Montecarlo.mean_inl
    b.Dacmodel.Montecarlo.mean_inl

let test_mc_trials_required () =
  Alcotest.(check bool) "trials >= 1" true
    (try ignore (Dacmodel.Montecarlo.run tech ~trials:0 spiral8); false
     with Invalid_argument _ -> true)

let test_mc_perfect_process_perfect_yield () =
  let ideal = { tech with Tech.Process.mismatch_coeff = 0.; gradient_ppm = 0. } in
  let mc = Dacmodel.Montecarlo.run ideal ~trials:50 spiral8 in
  Alcotest.(check (float 1e-9)) "yield 1" 1. mc.Dacmodel.Montecarlo.yield;
  (* the Cholesky jitter leaves femto-scale shifts, hence the loose bound *)
  Alcotest.(check bool) "INL ~ 0" true (mc.Dacmodel.Montecarlo.max_inl < 1e-3)

let test_mc_dispersion_ordering () =
  (* the chessboard's Monte-Carlo DNL distribution must sit below the
     spiral's — the same ordering the 3-sigma model shows *)
  let chess = Ccplace.Chessboard.place ~bits:8 in
  let mc_s = Dacmodel.Montecarlo.run tech ~seed:1 ~trials:150 spiral8 in
  let mc_c = Dacmodel.Montecarlo.run tech ~seed:1 ~trials:150 chess in
  Alcotest.(check bool) "chessboard mean DNL lower" true
    (mc_c.Dacmodel.Montecarlo.mean_dnl < mc_s.Dacmodel.Montecarlo.mean_dnl)

let test_mc_consistent_with_3sigma () =
  (* the analytical 3-sigma DNL should be an upper-tail statement: the MC
     p95 must not exceed it wildly, and the MC mean must stay below it *)
  let analytic = Dacmodel.Nonlinearity.analyze tech spiral8 in
  let mc = Dacmodel.Montecarlo.run tech ~trials:300 spiral8 in
  Alcotest.(check bool) "MC mean below 3-sigma point" true
    (mc.Dacmodel.Montecarlo.mean_dnl
     < analytic.Dacmodel.Nonlinearity.max_abs_dnl);
  Alcotest.(check bool) "3-sigma within 3x of MC p95" true
    (analytic.Dacmodel.Nonlinearity.max_abs_dnl
     < 3. *. mc.Dacmodel.Montecarlo.p95_dnl +. 1e-6)

(* The 3-sigma model as an oracle for Monte-Carlo, where it holds: the
   analytic max |DNL| bounds the p95 of max |DNL| for every style and
   swept BC granularity at 6 and 8 bits, each flow's covariance and
   top-plate parasitic, finfet.  The tightest ratio is 6-bit
   block-chess g=1 at about 0.92.  At 4000 trials the ratio's spread
   over 40 seeds is 0.897-0.943 there (about 0.012 standard deviation,
   so the 8% margin is over six of them); at 1000 trials one seed of 40
   reached 0.990.  The bound does not hold at 4 bits (1.4-1.9), nor for
   INL at any size (1.2-2.2): EXPERIMENTS.md has both gaps. *)
let test_3sigma_dnl_bounds_mc_p95 () =
  List.iter
    (fun bits ->
       List.iter
         (fun style ->
            let r = Ccdac.Flow.run ~bits style in
            let mc =
              Dacmodel.Montecarlo.run r.Ccdac.Flow.tech ~seed:1 ~trials:4000
                ~cov:r.Ccdac.Flow.covariance
                ~top_parasitic:r.Ccdac.Flow.parasitics.Extract.Parasitics.total_top_cap
                r.Ccdac.Flow.placement
            in
            let p95 = mc.Dacmodel.Montecarlo.p95_dnl in
            if not (p95 <= r.Ccdac.Flow.max_dnl) then
              Alcotest.failf "%d-bit %s: MC p95 max |DNL| %.5f above 3-sigma %.5f"
                bits (Ccplace.Style.name style) p95 r.Ccdac.Flow.max_dnl)
         (Ccplace.Style.[ Spiral; Chessboard; Rowwise ]
          @ Ccplace.Style.block_family ~bits))
    [ 6; 8 ]

(* --- closed-form trial vs the per-code loop it replaced --- *)

(* The loop walks every code through Eq. 9 and takes the worst |INL| and
   |DNL|.  It carries about 2^N ulp of cancellation error, so the bar is
   absolute: 1e-10 LSB. *)
let reference_evaluate ~bits ~c_t ~top_parasitic ~sys shifts =
  let vref = 1.0 in
  let codes = Dacmodel.Transfer.num_codes ~bits in
  let m_cu = c_t /. float_of_int codes in
  let delta_k = Array.mapi (fun k s -> s +. sys.(k)) shifts in
  let delta_t = Array.fold_left ( +. ) 0. delta_k +. top_parasitic in
  let lsb = Dacmodel.Transfer.lsb ~bits ~vref in
  let worst_inl = ref 0. and worst_dnl = ref 0. and v_prev = ref 0. in
  for code = 1 to codes - 1 do
    let delta_on = ref 0. in
    for k = 1 to bits do
      if Dacmodel.Transfer.bit ~code k then delta_on := !delta_on +. delta_k.(k)
    done;
    let c_on = float_of_int code *. m_cu in
    let v =
      Dacmodel.Transfer.perturbed ~vref ~c_on ~delta_on:!delta_on ~c_t ~delta_t
    in
    let inl = (v -. Dacmodel.Transfer.ideal ~bits ~code ~vref) /. lsb in
    let dnl = (v -. !v_prev -. lsb) /. lsb in
    v_prev := v;
    worst_inl := Float.max !worst_inl (Float.abs inl);
    worst_dnl := Float.max !worst_dnl (Float.abs dnl)
  done;
  (!worst_inl, !worst_dnl)

let trial_bar = 1e-10

let check_trial what ~bits ~c_t ~top_parasitic ~sys shifts =
  let inl, dnl = Dacmodel.Montecarlo.evaluate ~bits ~c_t ~top_parasitic ~sys shifts in
  let ref_inl, ref_dnl = reference_evaluate ~bits ~c_t ~top_parasitic ~sys shifts in
  let close field a b =
    if not (Float.abs (a -. b) <= trial_bar) then
      Alcotest.failf "%s %s: %.17g vs per-code loop %.17g" what field a b
  in
  close "max |inl|" inl ref_inl;
  close "max |dnl|" dnl ref_dnl;
  (inl, dnl)

(* e_k of the closed form, for asserting that a vector is adversarial *)
let contributions ~bits ~c_t ~top_parasitic ~sys shifts =
  let delta k = shifts.(k) +. sys.(k) in
  let delta_t =
    Array.fold_left ( +. ) 0. (Array.mapi (fun k _ -> delta k) shifts) +. top_parasitic
  in
  List.init bits (fun i ->
      let k = i + 1 in
      ((2. ** float_of_int bits) *. delta k -. ((2. ** float_of_int i) *. delta_t))
      /. (c_t +. delta_t))

let test_closed_form_drawn () =
  for bits = 2 to 14 do
    List.iter
      (fun style ->
         let p = Ccplace.Style.place ~bits style in
         let c_t =
           float_of_int (1 lsl bits)
           *. float_of_int p.Ccgrid.Placement.unit_multiplier
           *. tech.Tech.Process.unit_cap
         in
         let sys =
           Array.map (Capmodel.Gradient.systematic_shift tech)
             (Ccgrid.Placement.positions_by_cap tech p)
         in
         let factor =
           Capmodel.Gauss.factorize (Dacmodel.Nonlinearity.covariance tech p)
         in
         List.iter
           (fun (index, top_parasitic) ->
              let shifts =
                draw factor ~seed:bits ~index
              in
              ignore
                (check_trial
                   (Printf.sprintf "%s %d-bit trial %d" (Ccplace.Style.name style)
                      bits index)
                   ~bits ~c_t ~top_parasitic ~sys shifts))
           [ (0, 0.); (1, 0.); (2, 0.7); (3, 0.05 *. c_t) ])
      Ccplace.Style.[ Spiral; Chessboard; Rowwise; block_default ~bits ]
  done

let test_closed_form_adversarial () =
  let st = Random.State.make [| 0xadd |] in
  List.iter
    (fun bits ->
       let c_t = float_of_int (1 lsl bits) *. 0.5 in
       let sys = Array.init (bits + 1) (fun _ -> 0.) in
       let small () = 1e-3 +. Random.State.float st 1e-2 in
       let what name = Printf.sprintf "%d-bit %s" bits name in
       let all_of_sign name positive ~top_parasitic shifts =
         let es = contributions ~bits ~c_t ~top_parasitic ~sys shifts in
         Alcotest.(check bool) (what name ^ ": every e_k of one sign") true
           (List.for_all (fun e -> if positive then e > 0. else e < 0.) es);
         let inl, _ = check_trial (what name) ~bits ~c_t ~top_parasitic ~sys shifts in
         (* one-signed contributions: the full-scale code is the worst *)
         let total = Float.abs (List.fold_left ( +. ) 0. es) in
         if not (Float.abs (inl -. total) <= trial_bar) then
           Alcotest.failf "%s: max |inl| %.17g, full-scale sum %.17g" (what name) inl total
       in
       (* C_0 cancels the others: dT = 0, every e_k = 2^N d_k / C_T > 0 *)
       let up = Array.init (bits + 1) (fun k -> if k = 0 then 0. else small ()) in
       up.(0) <- -.Array.fold_left ( +. ) 0. up;
       all_of_sign "all positive" true ~top_parasitic:0. up;
       (* only C_0 moves: every e_k = -2^(k-1) dT / (C_T + dT) < 0 *)
       let c0 = Array.init (bits + 1) (fun k -> if k = 0 then small () else 0.) in
       all_of_sign "all negative" false ~top_parasitic:0. c0;
       (* a top-plate parasitic larger than the array: gain error dominates *)
       let noise = Array.init (bits + 1) (fun _ -> small () -. 6e-3) in
       all_of_sign "large top parasitic" false ~top_parasitic:(1.5 *. c_t) noise;
       (* mixed signs, several LSB per bit *)
       let mixed = Array.init (bits + 1) (fun _ -> Random.State.float st 4. -. 2.) in
       ignore (check_trial (what "mixed") ~bits ~c_t ~top_parasitic:0.3 ~sys mixed);
       (* a draw that empties the array is rejected, as by the loop *)
       let empty = Array.init (bits + 1) (fun k -> if k = 0 then -.c_t else 0.) in
       let rejects f =
         try ignore (f ~bits ~c_t ~top_parasitic:0. ~sys empty); false
         with Invalid_argument _ -> true
       in
       Alcotest.(check bool) (what "non-positive C_T rejected") true
         (rejects Dacmodel.Montecarlo.evaluate && rejects reference_evaluate))
    [ 2; 3; 5; 8; 10; 12; 14 ]

let test_trial_curves_length () =
  let inls, dnls = Dacmodel.Montecarlo.trial_curves tech ~trials:17 spiral8 in
  Alcotest.(check int) "17 INL trials" 17 (Array.length inls);
  Alcotest.(check int) "17 DNL trials" 17 (Array.length dnls)

(* run's p95 fields are the ceiling nearest-rank samples of the sorted
   trials, drawn with the same seed and covariance *)
let test_mc_p95_sorted_reference () =
  let cov = Dacmodel.Nonlinearity.covariance tech spiral8 in
  let trials = 1000 and seed = 13 in
  let mc = Dacmodel.Montecarlo.run tech ~seed ~cov ~trials spiral8 in
  let curves = Dacmodel.Montecarlo.trial_curves tech ~seed ~cov ~trials spiral8 in
  let p95 side =
    let a = Array.copy (side curves) in
    Array.sort Float.compare a;
    a.(int_of_float (Float.ceil (0.95 *. float_of_int trials)) - 1)
  in
  Alcotest.(check bool) "p95 INL = sorted rank 950" true
    (Float.equal mc.Dacmodel.Montecarlo.p95_inl (p95 fst));
  Alcotest.(check bool) "p95 DNL = sorted rank 950" true
    (Float.equal mc.Dacmodel.Montecarlo.p95_dnl (p95 snd))

let prop_yield_monotone_in_bound =
  QCheck.Test.make ~name:"looser bound, higher yield" ~count:10
    QCheck.(pair (float_range 0.05 0.3) (float_range 0.35 1.0))
    (fun (tight, loose) ->
       let run bound =
         (Dacmodel.Montecarlo.run tech ~seed:5 ~trials:60 ~bound spiral8)
           .Dacmodel.Montecarlo.yield
       in
       run loose >= run tight)

let () =
  Alcotest.run "montecarlo"
    [ ( "cholesky",
        [ Alcotest.test_case "identity" `Quick test_cholesky_identity;
          Alcotest.test_case "reconstructs" `Quick test_cholesky_reconstructs;
          Alcotest.test_case "rejects non-psd" `Quick test_cholesky_rejects_non_psd;
          Alcotest.test_case "rejects non-square" `Quick test_cholesky_rejects_non_square;
          Alcotest.test_case "semidefinite" `Quick test_cholesky_handles_semidefinite ] );
      ( "normal",
        [ Alcotest.test_case "moments" `Quick test_standard_normal_moments ] );
      ( "sampler",
        [ Alcotest.test_case "dimensions" `Quick test_sampler_dimensions;
          Alcotest.test_case "reproducible" `Quick test_sampler_reproducible;
          Alcotest.test_case "variance" `Quick test_sampler_variance_matches_model;
          Alcotest.test_case "= Random.State draw" `Quick
            test_sampler_matches_random_state ] );
      ( "montecarlo",
        [ Alcotest.test_case "fields" `Quick test_mc_fields_sane;
          Alcotest.test_case "reproducible" `Quick test_mc_reproducible;
          Alcotest.test_case "trials >= 1" `Quick test_mc_trials_required;
          Alcotest.test_case "perfect process" `Quick test_mc_perfect_process_perfect_yield;
          Alcotest.test_case "dispersion ordering" `Slow test_mc_dispersion_ordering;
          Alcotest.test_case "vs 3-sigma" `Slow test_mc_consistent_with_3sigma;
          Alcotest.test_case "3-sigma DNL bounds p95" `Quick
            test_3sigma_dnl_bounds_mc_p95;
          Alcotest.test_case "trial curves" `Quick test_trial_curves_length;
          Alcotest.test_case "p95 = sorted reference" `Quick test_mc_p95_sorted_reference ] );
      ( "closed form",
        [ Alcotest.test_case "drawn trials = per-code loop" `Slow
            test_closed_form_drawn;
          Alcotest.test_case "adversarial = per-code loop" `Quick
            test_closed_form_adversarial ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_yield_monotone_in_bound ] ) ]
