(* Tests for the FFT substrate and spectral DAC metrics. *)

let check_float = Alcotest.(check (float 1e-6))
let tech = Tech.Process.finfet_12nm

(* --- fft --- *)

let test_fft_impulse () =
  (* FFT of an impulse is flat *)
  let re = Array.make 8 0. and im = Array.make 8 0. in
  re.(0) <- 1.;
  Capmodel.Fft.fft ~re ~im;
  for k = 0 to 7 do
    check_float "flat re" 1. re.(k);
    check_float "flat im" 0. im.(k)
  done

let test_fft_single_tone () =
  (* cos(2 pi 3 t): energy only in bins 3 and n-3 *)
  let n = 64 in
  let re =
    Array.init n (fun i ->
        cos (2. *. Float.pi *. 3. *. float_of_int i /. float_of_int n))
  in
  let im = Array.make n 0. in
  Capmodel.Fft.fft ~re ~im;
  for k = 0 to n - 1 do
    let m = Capmodel.Fft.magnitude ~re ~im k in
    if k = 3 || k = n - 3 then
      Alcotest.(check (float 1e-6)) "tone bin" (float_of_int n /. 2.) m
    else if m > 1e-6 then Alcotest.failf "leakage at bin %d: %g" k m
  done

let test_fft_roundtrip () =
  let n = 32 in
  let original = Array.init n (fun i -> sin (0.3 *. float_of_int i) +. 0.1) in
  let re = Array.copy original and im = Array.make n 0. in
  Capmodel.Fft.fft ~re ~im;
  Capmodel.Fft.ifft ~re ~im;
  for i = 0 to n - 1 do
    if Float.abs (re.(i) -. original.(i)) > 1e-9 then
      Alcotest.failf "roundtrip mismatch at %d" i
  done

let test_fft_parseval () =
  (* sum |x|^2 = (1/n) sum |X|^2 *)
  let n = 128 in
  let re = Array.init n (fun i -> Float.rem (float_of_int (i * 37)) 11. -. 5.) in
  let time_energy = Array.fold_left (fun a x -> a +. (x *. x)) 0. re in
  let im = Array.make n 0. in
  Capmodel.Fft.fft ~re ~im;
  let freq_energy = ref 0. in
  for k = 0 to n - 1 do
    let m = Capmodel.Fft.magnitude ~re ~im k in
    freq_energy := !freq_energy +. (m *. m)
  done;
  Alcotest.(check bool) "parseval" true
    (Float.abs (time_energy -. (!freq_energy /. float_of_int n))
     /. time_energy
     < 1e-9)

let test_fft_rejects_bad_length () =
  Alcotest.(check bool) "non power of two" true
    (try Capmodel.Fft.fft ~re:(Array.make 6 0.) ~im:(Array.make 6 0.); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "mismatch" true
    (try Capmodel.Fft.fft ~re:(Array.make 8 0.) ~im:(Array.make 4 0.); false
     with Invalid_argument _ -> true)

let test_hann_window () =
  let w = Capmodel.Fft.hann 16 in
  check_float "starts at 0" 0. w.(0);
  Alcotest.(check bool) "peak near centre" true (w.(8) > 0.99)

let test_power_spectrum_total () =
  (* one-sided power of a unit cosine is 1/2 at its bin *)
  let n = 64 in
  let re =
    Array.init n (fun i ->
        cos (2. *. Float.pi *. 5. *. float_of_int i /. float_of_int n))
  in
  let im = Array.make n 0. in
  Capmodel.Fft.fft ~re ~im;
  let ps = Capmodel.Fft.power_spectrum ~re ~im in
  check_float "bin 5 power" 0.5 ps.(5)

(* --- spectrum --- *)

let ideal_vout bits =
  Array.init (1 lsl bits) (fun code ->
      Dacmodel.Transfer.ideal ~bits ~code ~vref:1.)

let test_ideal_dac_hits_quantisation_bound () =
  (* a perfect 8-bit DAC: SNDR within ~1.5 dB of 6.02 N + 1.76 *)
  let s = Dacmodel.Spectrum.of_curve ~bits:8 ~vout:(ideal_vout 8) () in
  let bound = Dacmodel.Spectrum.ideal_sndr_db ~bits:8 in
  Alcotest.(check bool)
    (Printf.sprintf "SNDR %.1f dB vs bound %.1f dB" s.Dacmodel.Spectrum.sndr_db bound)
    true
    (Float.abs (s.Dacmodel.Spectrum.sndr_db -. bound) < 2.)

let test_enob_of_ideal_dac () =
  let s = Dacmodel.Spectrum.of_curve ~bits:8 ~vout:(ideal_vout 8) () in
  Alcotest.(check bool) "ENOB ~ N" true
    (s.Dacmodel.Spectrum.enob > 7.6 && s.Dacmodel.Spectrum.enob < 8.3)

let test_distortion_lowers_sndr () =
  (* add a compressive cubic nonlinearity *)
  let bits = 8 in
  let vout =
    Array.map (fun v -> v -. (0.05 *. v *. v *. v)) (ideal_vout bits)
  in
  let bent = Dacmodel.Spectrum.of_curve ~bits ~vout () in
  let clean = Dacmodel.Spectrum.of_curve ~bits ~vout:(ideal_vout bits) () in
  Alcotest.(check bool) "SNDR drops" true
    (bent.Dacmodel.Spectrum.sndr_db < clean.Dacmodel.Spectrum.sndr_db -. 3.);
  Alcotest.(check bool) "SFDR drops" true
    (bent.Dacmodel.Spectrum.sfdr_db < clean.Dacmodel.Spectrum.sfdr_db -. 3.);
  Alcotest.(check bool) "THD visible" true
    (bent.Dacmodel.Spectrum.thd_db > -80.)

let test_spectrum_fields () =
  let s = Dacmodel.Spectrum.of_curve ~bits:6 ~vout:(ideal_vout 6) ~samples:1024 () in
  Alcotest.(check int) "signal bin" 63 s.Dacmodel.Spectrum.signal_bin;
  Alcotest.(check int) "spectrum bins" 513
    (Array.length s.Dacmodel.Spectrum.spectrum_db);
  Alcotest.(check (float 1e-9)) "signal at 0 dBc" 0.
    s.Dacmodel.Spectrum.spectrum_db.(63)

let test_spectrum_rejects_bad_args () =
  Alcotest.(check bool) "bad vout length" true
    (try ignore (Dacmodel.Spectrum.of_curve ~bits:8 ~vout:(ideal_vout 6) ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "even cycles" true
    (try
       ignore (Dacmodel.Spectrum.of_curve ~bits:6 ~vout:(ideal_vout 6) ~cycles:64 ());
       false
     with Invalid_argument _ -> true)

let test_layout_mismatch_separates_styles () =
  (* a large common mismatch sample: the dispersed chessboard keeps a
     cleaner spectrum than the clustered spiral *)
  let noisy = { tech with Tech.Process.mismatch_coeff = 0.02 } in
  let sfdr style =
    let p = Ccplace.Style.place ~bits:8 style in
    let cov =
      Capmodel.Covariance.build noisy
        (Ccgrid.Placement.positions_by_cap noisy p)
    in
    let sample = Capmodel.Gauss.draw (Capmodel.Gauss.sampler ~seed:9 cov) in
    (Dacmodel.Spectrum.analyze noisy ~sample p).Dacmodel.Spectrum.sfdr_db
  in
  Alcotest.(check bool) "chessboard cleaner" true
    (sfdr Ccplace.Style.Chessboard > sfdr Ccplace.Style.Spiral)

let prop_fft_linearity =
  QCheck.Test.make ~name:"fft is linear" ~count:30
    QCheck.(pair (float_range (-3.) 3.) (float_range (-3.) 3.))
    (fun (a, b) ->
       let n = 16 in
       let x = Array.init n (fun i -> sin (0.7 *. float_of_int i)) in
       let y = Array.init n (fun i -> cos (1.3 *. float_of_int i)) in
       let tx = Array.copy x and txi = Array.make n 0. in
       let ty = Array.copy y and tyi = Array.make n 0. in
       Capmodel.Fft.fft ~re:tx ~im:txi;
       Capmodel.Fft.fft ~re:ty ~im:tyi;
       let z = Array.init n (fun i -> (a *. x.(i)) +. (b *. y.(i))) in
       let tz = Array.copy z and tzi = Array.make n 0. in
       Capmodel.Fft.fft ~re:tz ~im:tzi;
       let ok = ref true in
       for k = 0 to n - 1 do
         if Float.abs (tz.(k) -. ((a *. tx.(k)) +. (b *. ty.(k)))) > 1e-6 then
           ok := false
       done;
       !ok)

let () =
  Alcotest.run "spectrum"
    [ ( "fft",
        [ Alcotest.test_case "impulse" `Quick test_fft_impulse;
          Alcotest.test_case "single tone" `Quick test_fft_single_tone;
          Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "parseval" `Quick test_fft_parseval;
          Alcotest.test_case "bad length" `Quick test_fft_rejects_bad_length;
          Alcotest.test_case "hann" `Quick test_hann_window;
          Alcotest.test_case "power spectrum" `Quick test_power_spectrum_total ] );
      ( "dac spectrum",
        [ Alcotest.test_case "quantisation bound" `Quick test_ideal_dac_hits_quantisation_bound;
          Alcotest.test_case "ENOB" `Quick test_enob_of_ideal_dac;
          Alcotest.test_case "distortion" `Quick test_distortion_lowers_sndr;
          Alcotest.test_case "fields" `Quick test_spectrum_fields;
          Alcotest.test_case "bad args" `Quick test_spectrum_rejects_bad_args;
          Alcotest.test_case "styles separate" `Slow test_layout_mismatch_separates_styles ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_fft_linearity ] ) ]
