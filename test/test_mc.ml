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
                Capmodel.Gauss.draw_from factor (Par.Rng.state ~seed:bits ~index)
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
  let curves = Dacmodel.Montecarlo.trial_curves tech ~trials:17 spiral8 in
  Alcotest.(check int) "17 trials" 17 (List.length curves)

(* run's p95 fields are the ceiling nearest-rank samples of the sorted
   trials, drawn with the same seed and covariance *)
let test_mc_p95_sorted_reference () =
  let cov = Dacmodel.Nonlinearity.covariance tech spiral8 in
  let trials = 1000 and seed = 13 in
  let mc = Dacmodel.Montecarlo.run tech ~seed ~cov ~trials spiral8 in
  let curves = Dacmodel.Montecarlo.trial_curves tech ~seed ~cov ~trials spiral8 in
  let p95 side =
    let a = Array.of_list (List.map side curves) in
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
          Alcotest.test_case "variance" `Quick test_sampler_variance_matches_model ] );
      ( "montecarlo",
        [ Alcotest.test_case "fields" `Quick test_mc_fields_sane;
          Alcotest.test_case "reproducible" `Quick test_mc_reproducible;
          Alcotest.test_case "trials >= 1" `Quick test_mc_trials_required;
          Alcotest.test_case "perfect process" `Quick test_mc_perfect_process_perfect_yield;
          Alcotest.test_case "dispersion ordering" `Slow test_mc_dispersion_ordering;
          Alcotest.test_case "vs 3-sigma" `Slow test_mc_consistent_with_3sigma;
          Alcotest.test_case "trial curves" `Quick test_trial_curves_length;
          Alcotest.test_case "p95 = sorted reference" `Quick test_mc_p95_sorted_reference ] );
      ( "closed form",
        [ Alcotest.test_case "drawn trials = per-code loop" `Slow
            test_closed_form_drawn;
          Alcotest.test_case "adversarial = per-code loop" `Quick
            test_closed_form_adversarial ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_yield_monotone_in_bound ] ) ]
