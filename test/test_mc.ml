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
  let state = Random.State.make [| 42 |] in
  let n = 20000 in
  let sum = ref 0. and sum2 = ref 0. in
  for _ = 1 to n do
    let z = Capmodel.Gauss.standard_normal state in
    sum := !sum +. z;
    sum2 := !sum2 +. (z *. z)
  done;
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

let test_sampler_dimensions () =
  let state = Random.State.make [| 0x5eed |] in
  Alcotest.(check int) "9 capacitors" 9
    (Array.length (Capmodel.Gauss.draw_from (Lazy.force factor8) state))

let test_sampler_reproducible () =
  let draw_first seed =
    Capmodel.Gauss.draw_from (Lazy.force factor8) (Random.State.make [| seed |])
  in
  Alcotest.(check bool) "same seed, same draw" true
    (draw_first 7 = draw_first 7);
  Alcotest.(check bool) "different seeds differ" true
    (draw_first 7 <> draw_first 8)

let test_sampler_variance_matches_model () =
  (* the MSB sample variance must approach sigma_N^2 from Eq. 6 *)
  let factor = Lazy.force factor8 in
  let state = Random.State.make [| 0x5eed |] in
  let n = 4000 in
  let sum2 = ref 0. in
  for _ = 1 to n do
    let x = (Capmodel.Gauss.draw_from factor state).(8) in
    sum2 := !sum2 +. (x *. x)
  done;
  let sample_var = !sum2 /. float_of_int n in
  let model_var = Capmodel.Covariance.variance (Lazy.force cov8) 8 in
  Alcotest.(check bool)
    (Printf.sprintf "sample %.4f vs model %.4f" sample_var model_var)
    true
    (Float.abs (sample_var -. model_var) /. model_var < 0.12)

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

let test_trial_curves_length () =
  let curves = Dacmodel.Montecarlo.trial_curves tech ~trials:17 spiral8 in
  Alcotest.(check int) "17 trials" 17 (List.length curves)

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
          Alcotest.test_case "variance" `Quick test_sampler_variance_matches_model ] );
      ( "montecarlo",
        [ Alcotest.test_case "fields" `Quick test_mc_fields_sane;
          Alcotest.test_case "reproducible" `Quick test_mc_reproducible;
          Alcotest.test_case "trials >= 1" `Quick test_mc_trials_required;
          Alcotest.test_case "perfect process" `Quick test_mc_perfect_process_perfect_yield;
          Alcotest.test_case "dispersion ordering" `Slow test_mc_dispersion_ordering;
          Alcotest.test_case "vs 3-sigma" `Slow test_mc_consistent_with_3sigma;
          Alcotest.test_case "trial curves" `Quick test_trial_curves_length ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_yield_monotone_in_bound ] ) ]
