(* Tests for the DAC circuit-level models (Sec. II-A, III). *)

let check_float = Alcotest.(check (float 1e-9))
let tech = Tech.Process.finfet_12nm

(* an idealised process: no gradient, no random mismatch *)
let ideal_tech =
  { tech with Tech.Process.gradient_ppm = 0.; mismatch_coeff = 0. }

(* --- transfer --- *)

let test_transfer_ideal_endpoints () =
  check_float "code 0" 0. (Dacmodel.Transfer.ideal ~bits:8 ~code:0 ~vref:1.);
  check_float "full scale"
    (255. /. 256.)
    (Dacmodel.Transfer.ideal ~bits:8 ~code:255 ~vref:1.)

let test_transfer_monotone () =
  let prev = ref (-1.) in
  for code = 0 to 63 do
    let v = Dacmodel.Transfer.ideal ~bits:6 ~code ~vref:1. in
    Alcotest.(check bool) "monotone" true (v > !prev);
    prev := v
  done

let test_transfer_lsb () =
  check_float "lsb" (1. /. 1024.) (Dacmodel.Transfer.lsb ~bits:10 ~vref:1.);
  check_float "lsb scales with vref" (2.5 /. 64.)
    (Dacmodel.Transfer.lsb ~bits:6 ~vref:2.5)

let test_transfer_bits () =
  (* code 5 = 101b: D_1 and D_3 set *)
  Alcotest.(check bool) "D_1" true (Dacmodel.Transfer.bit ~code:5 1);
  Alcotest.(check bool) "D_2" false (Dacmodel.Transfer.bit ~code:5 2);
  Alcotest.(check bool) "D_3" true (Dacmodel.Transfer.bit ~code:5 3)

let test_transfer_on_units () =
  Alcotest.(check int) "on units = code" 37
    (Dacmodel.Transfer.on_units ~bits:6 ~code:37)

let test_transfer_code_range () =
  Alcotest.(check bool) "negative rejected" true
    (try ignore (Dacmodel.Transfer.ideal ~bits:6 ~code:(-1) ~vref:1.); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "overflow rejected" true
    (try ignore (Dacmodel.Transfer.ideal ~bits:6 ~code:64 ~vref:1.); false
     with Invalid_argument _ -> true)

let test_transfer_perturbed () =
  check_float "no perturbation" 0.5
    (Dacmodel.Transfer.perturbed ~vref:1. ~c_on:50. ~delta_on:0. ~c_t:100. ~delta_t:0.);
  Alcotest.(check bool) "extra C_T lowers output" true
    (Dacmodel.Transfer.perturbed ~vref:1. ~c_on:50. ~delta_on:0. ~c_t:100. ~delta_t:5.
     < 0.5)

(* --- nonlinearity --- *)

let spiral8 = Ccplace.Spiral.place ~bits:8

let test_ideal_process_perfect_dac () =
  let a = Dacmodel.Nonlinearity.analyze ideal_tech spiral8 in
  Alcotest.(check (float 1e-9)) "INL 0" 0. a.Dacmodel.Nonlinearity.max_abs_inl;
  Alcotest.(check (float 1e-9)) "DNL 0" 0. a.Dacmodel.Nonlinearity.max_abs_dnl

let test_code_zero_anchored () =
  let a = Dacmodel.Nonlinearity.analyze tech spiral8 in
  check_float "INL(0)" 0. a.Dacmodel.Nonlinearity.inl.(0);
  check_float "DNL(0)" 0. a.Dacmodel.Nonlinearity.dnl.(0)

let test_array_lengths () =
  let a = Dacmodel.Nonlinearity.analyze tech spiral8 in
  Alcotest.(check int) "codes" 256 (Array.length a.Dacmodel.Nonlinearity.inl);
  Alcotest.(check int) "codes" 256 (Array.length a.Dacmodel.Nonlinearity.dnl)

let test_max_abs_consistent () =
  let a = Dacmodel.Nonlinearity.analyze tech spiral8 in
  let max_of arr =
    Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. arr
  in
  check_float "max inl" (max_of a.Dacmodel.Nonlinearity.inl)
    a.Dacmodel.Nonlinearity.max_abs_inl

let test_gradient_only_small_inl () =
  (* exact common-centroid placement cancels a linear gradient to first
     order: gradient-only INL is tiny *)
  let grad_tech = { tech with Tech.Process.mismatch_coeff = 0. } in
  let a = Dacmodel.Nonlinearity.analyze grad_tech spiral8 in
  Alcotest.(check bool) "sub-milli-LSB" true
    (a.Dacmodel.Nonlinearity.max_abs_inl < 1e-2)

let test_top_parasitic_gain_error () =
  let base = Dacmodel.Nonlinearity.analyze ideal_tech spiral8 in
  let loaded =
    Dacmodel.Nonlinearity.analyze ideal_tech ~top_parasitic:5. spiral8
  in
  Alcotest.(check bool) "C^TS causes INL" true
    (loaded.Dacmodel.Nonlinearity.max_abs_inl
     > base.Dacmodel.Nonlinearity.max_abs_inl);
  (* a pure gain error from C_T loading is negative INL (output too low) *)
  let worst_code = (1 lsl 8) - 1 in
  Alcotest.(check bool) "negative at full scale" true
    (loaded.Dacmodel.Nonlinearity.inl.(worst_code) < 0.)

let test_worst_case_not_smaller () =
  let paper = Dacmodel.Nonlinearity.analyze tech spiral8 in
  let worst =
    Dacmodel.Nonlinearity.analyze tech
      ~sign_mode:Dacmodel.Nonlinearity.Worst_case spiral8
  in
  Alcotest.(check bool) "worst >= paper INL" true
    (worst.Dacmodel.Nonlinearity.max_abs_inl
     >= paper.Dacmodel.Nonlinearity.max_abs_inl -. 1e-12);
  Alcotest.(check bool) "worst >= paper DNL" true
    (worst.Dacmodel.Nonlinearity.max_abs_dnl
     >= paper.Dacmodel.Nonlinearity.max_abs_dnl -. 1e-12)

let test_dispersion_reduces_nonlinearity () =
  (* the paper's core claim about dispersion (Sec. IV-A2) *)
  let chess = Ccplace.Chessboard.place ~bits:8 in
  let a_s = Dacmodel.Nonlinearity.analyze tech spiral8 in
  let a_c = Dacmodel.Nonlinearity.analyze tech chess in
  Alcotest.(check bool) "chessboard DNL better" true
    (a_c.Dacmodel.Nonlinearity.max_abs_dnl
     < a_s.Dacmodel.Nonlinearity.max_abs_dnl)

let test_theta_override () =
  let grad_tech =
    { tech with Tech.Process.mismatch_coeff = 0.; gradient_ppm = 1000. }
  in
  let a0 = Dacmodel.Nonlinearity.analyze grad_tech ~theta:0. spiral8 in
  let a90 =
    Dacmodel.Nonlinearity.analyze grad_tech ~theta:(Float.pi /. 2.) spiral8
  in
  (* different angles give different systematic residues *)
  Alcotest.(check bool) "angle matters" true
    (Float.abs
       (a0.Dacmodel.Nonlinearity.max_abs_inl
        -. a90.Dacmodel.Nonlinearity.max_abs_inl)
     > 0.)

(* --- speed --- *)

let test_settling_formula () =
  (* Eq. 15: t_settle = ln(2^(N+2)) tau = (N+2) ln2 tau *)
  check_float "settling" (8. *. Float.log 2. *. 100.)
    (Dacmodel.Speed.settling_time_fs ~bits:6 ~tau_fs:100.)

let test_f3db_formula () =
  (* Eq. 16 at tau = 1 ps, N = 6: 1/(2*8*ln2*1e-12) Hz *)
  let expected = 1. /. (16. *. Float.log 2. *. 1e-12) /. 1e6 in
  check_float "f3db" expected (Dacmodel.Speed.f3db_mhz ~bits:6 ~tau_fs:1000.)

let test_f3db_decreases_with_bits () =
  Alcotest.(check bool) "more bits, lower f3dB" true
    (Dacmodel.Speed.f3db_mhz ~bits:10 ~tau_fs:1000.
     < Dacmodel.Speed.f3db_mhz ~bits:6 ~tau_fs:1000.)

let test_f3db_rejects_nonpositive_tau () =
  Alcotest.(check bool) "tau 0" true
    (try ignore (Dacmodel.Speed.f3db_mhz ~bits:6 ~tau_fs:0.); false
     with Invalid_argument _ -> true)

let test_improvement_factor () =
  check_float "factor" 2.5
    (Dacmodel.Speed.improvement_factor ~base_mhz:100. ~mhz:250.)

(* --- properties --- *)

let prop_f3db_inverse_in_tau =
  QCheck.Test.make ~name:"f3dB ~ 1/tau" ~count:100
    QCheck.(pair (int_range 2 12) (float_range 1. 1e6))
    (fun (bits, tau) ->
       let f1 = Dacmodel.Speed.f3db_mhz ~bits ~tau_fs:tau in
       let f2 = Dacmodel.Speed.f3db_mhz ~bits ~tau_fs:(2. *. tau) in
       Float.abs ((f1 /. f2) -. 2.) < 1e-6)

let prop_inl_zero_for_ideal =
  QCheck.Test.make ~name:"ideal process, zero INL, any style" ~count:20
    QCheck.(pair (int_range 2 8) (int_range 0 3))
    (fun (bits, idx) ->
       let style =
         match idx with
         | 0 -> Ccplace.Style.Spiral
         | 1 -> Ccplace.Style.Chessboard
         | 2 -> Ccplace.Style.Rowwise
         | _ -> Ccplace.Style.block_default ~bits
       in
       let p = Ccplace.Style.place ~bits style in
       let a = Dacmodel.Nonlinearity.analyze ideal_tech p in
       a.Dacmodel.Nonlinearity.max_abs_inl < 1e-9
       && a.Dacmodel.Nonlinearity.max_abs_dnl < 1e-9)

(* DNL against the per-code loop it replaced, which finds each code's
   toggling bits directly: equal bit for bit at 2-16 bits in both sign
   modes.  A covariance over three off-lattice points per capacitor stands
   in for the placement's own, so the 16-bit case stays cheap. *)
let reference_dnl (p : Ccgrid.Placement.t) ~sys ~cov ~sigma_t ~top_parasitic
    ~s_diff ~s_t =
  let bits = p.bits and vref = 1.0 in
  let m = float_of_int p.unit_multiplier and cu = tech.Tech.Process.unit_cap in
  let codes = Dacmodel.Transfer.num_codes ~bits in
  let c_t = float_of_int codes *. m *. cu in
  let delta_t =
    Array.fold_left ( +. ) 0. sys +. (s_t *. 3. *. sigma_t) +. top_parasitic
  in
  let lsb = Dacmodel.Transfer.lsb ~bits ~vref in
  Array.init codes (fun code ->
      if code = 0 then 0.
      else begin
        let weights = ref [] and sys_diff = ref 0. in
        for k = 1 to bits do
          let now = Dacmodel.Transfer.bit ~code k
          and before = Dacmodel.Transfer.bit ~code:(code - 1) k in
          if now <> before then begin
            let w = if now then 1. else -1. in
            weights := (k, w) :: !weights;
            sys_diff := !sys_diff +. (w *. sys.(k))
          end
        done;
        let sigma_diff = Capmodel.Covariance.sigma_weighted cov !weights in
        let step =
          vref
          *. ((m *. cu) +. !sys_diff +. (s_diff *. 3. *. sigma_diff))
          /. (c_t +. delta_t)
        in
        (step -. lsb) /. lsb
      end)

let test_dnl_steps_match_per_code () =
  let bitwise a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let max_abs a = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. a in
  for bits = 2 to 16 do
    let p = Ccplace.Style.place ~bits Ccplace.Style.Rowwise in
    let st = Random.State.make [| bits |] in
    let point () =
      Geom.Point.make ~x:(Random.State.float st 40.) ~y:(Random.State.float st 40.)
    in
    let cov =
      Capmodel.Covariance.build tech
        (Array.init (bits + 1) (fun _ -> Array.init 3 (fun _ -> point ())))
    in
    let sys =
      Array.map (Capmodel.Gradient.systematic_shift tech)
        (Ccgrid.Placement.positions_by_cap tech p)
    in
    let sigma_t = Capmodel.Covariance.sigma_of_subset cov (List.init (bits + 1) Fun.id) in
    let top_parasitic = 0.7 in
    List.iter
      (fun (sign_mode, combos) ->
         let a = Dacmodel.Nonlinearity.analyze tech ~cov ~sign_mode ~top_parasitic p in
         let refs =
           List.map
             (fun (s_diff, s_t) ->
                reference_dnl p ~sys ~cov ~sigma_t ~top_parasitic ~s_diff ~s_t)
             combos
         in
         let what = Printf.sprintf "%d-bit" bits in
         Alcotest.(check bool) (what ^ " dnl") true
           (Array.for_all2 bitwise (List.hd refs) a.Dacmodel.Nonlinearity.dnl);
         Alcotest.(check bool) (what ^ " max |dnl|") true
           (bitwise
              (List.fold_left (fun acc r -> Float.max acc (max_abs r)) 0. refs)
              a.Dacmodel.Nonlinearity.max_abs_dnl))
      [ (Dacmodel.Nonlinearity.Paper, [ (1., 1.) ]);
        ( Dacmodel.Nonlinearity.Worst_case,
          [ (1., 1.); (1., -1.); (-1., 1.); (-1., -1.) ] ) ]
  done

let () =
  Alcotest.run "dacmodel"
    [ ( "transfer",
        [ Alcotest.test_case "endpoints" `Quick test_transfer_ideal_endpoints;
          Alcotest.test_case "monotone" `Quick test_transfer_monotone;
          Alcotest.test_case "lsb" `Quick test_transfer_lsb;
          Alcotest.test_case "bits" `Quick test_transfer_bits;
          Alcotest.test_case "on units" `Quick test_transfer_on_units;
          Alcotest.test_case "code range" `Quick test_transfer_code_range;
          Alcotest.test_case "perturbed" `Quick test_transfer_perturbed ] );
      ( "nonlinearity",
        [ Alcotest.test_case "ideal process" `Quick test_ideal_process_perfect_dac;
          Alcotest.test_case "code zero" `Quick test_code_zero_anchored;
          Alcotest.test_case "array lengths" `Quick test_array_lengths;
          Alcotest.test_case "max abs" `Quick test_max_abs_consistent;
          Alcotest.test_case "gradient only" `Quick test_gradient_only_small_inl;
          Alcotest.test_case "gain error" `Quick test_top_parasitic_gain_error;
          Alcotest.test_case "worst case" `Quick test_worst_case_not_smaller;
          Alcotest.test_case "dispersion helps" `Quick test_dispersion_reduces_nonlinearity;
          Alcotest.test_case "theta override" `Quick test_theta_override;
          Alcotest.test_case "dnl steps = per-code loop" `Slow
            test_dnl_steps_match_per_code ] );
      ( "speed",
        [ Alcotest.test_case "settling" `Quick test_settling_formula;
          Alcotest.test_case "f3dB" `Quick test_f3db_formula;
          Alcotest.test_case "bits" `Quick test_f3db_decreases_with_bits;
          Alcotest.test_case "bad tau" `Quick test_f3db_rejects_nonpositive_tau;
          Alcotest.test_case "improvement" `Quick test_improvement_factor ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_f3db_inverse_in_tau; prop_inl_zero_for_ideal ] ) ]
