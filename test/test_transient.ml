(* Tests for the backward-Euler transient solver, including cross-checks
   against the Elmore delay and the analytic single-RC response. *)

let node tree cap = Rcnet.Rctree.add_node tree ~cap ()

let single_rc r c =
  let t = Rcnet.Rctree.create () in
  let root = node t 0. in
  let load = node t c in
  Rcnet.Rctree.add_edge t root load ~r;
  (t, root, load)

let test_single_rc_exponential () =
  (* v(t) = 1 - exp(-t/RC); check a few points within 2% *)
  let r = 100. and c = 10. in
  let tree, root, load = single_rc r c in
  let tau = r *. c in
  let wf =
    Rcnet.Transient.simulate tree ~root ~vstep:1. ~dt_fs:(tau /. 200.)
      ~steps:600
  in
  let load_i = (load : Rcnet.Rctree.node :> int) in
  List.iter
    (fun step ->
       let t = wf.Rcnet.Transient.times_fs.(step) in
       let v = wf.Rcnet.Transient.voltages.(step).(load_i) in
       let expected = 1. -. Float.exp (-.t /. tau) in
       if Float.abs (v -. expected) > 0.02 then
         Alcotest.failf "t=%.0f: v=%.4f expected %.4f" t v expected)
    [ 100; 200; 400; 600 ]

let test_root_clamped () =
  let tree, root, _ = single_rc 50. 5. in
  let wf = Rcnet.Transient.simulate tree ~root ~vstep:0.8 ~dt_fs:10. ~steps:20 in
  let root_i = (root : Rcnet.Rctree.node :> int) in
  for s = 1 to 20 do
    Alcotest.(check (float 1e-9)) "root at vstep" 0.8
      wf.Rcnet.Transient.voltages.(s).(root_i)
  done

let test_monotone_rise () =
  let tree, root, load = single_rc 100. 10. in
  let wf = Rcnet.Transient.simulate tree ~root ~vstep:1. ~dt_fs:50. ~steps:100 in
  let load_i = (load : Rcnet.Rctree.node :> int) in
  let prev = ref (-1.) in
  Array.iter
    (fun v ->
       Alcotest.(check bool) "monotone" true (v.(load_i) >= !prev -. 1e-12);
       prev := v.(load_i))
    wf.Rcnet.Transient.voltages

let test_settling_vs_analytic () =
  (* settling to within tol: t = -RC ln(tol) *)
  let r = 200. and c = 20. in
  let tree, root, load = single_rc r c in
  let tol = 0.01 in
  let t_settle =
    Rcnet.Transient.settling_time_fs tree ~root ~vstep:1. ~tolerance:tol
      ~node:load
  in
  let expected = -.(r *. c) *. Float.log tol in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.0f vs analytic %.0f" t_settle expected)
    true
    (Float.abs (t_settle -. expected) /. expected < 0.1)

let test_rejects_bad_args () =
  let tree, root, load = single_rc 1. 1. in
  Alcotest.(check bool) "dt <= 0" true
    (try ignore (Rcnet.Transient.simulate tree ~root ~vstep:1. ~dt_fs:0. ~steps:5); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "steps < 1" true
    (try ignore (Rcnet.Transient.simulate tree ~root ~vstep:1. ~dt_fs:1. ~steps:0); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "tolerance <= 0" true
    (try
       ignore
         (Rcnet.Transient.settling_time_fs tree ~root ~vstep:1. ~tolerance:0.
            ~node:load);
       false
     with Invalid_argument _ -> true)

(* the paper's settling model (Eq. 15): settle to 1/4 LSB of an N-bit DAC
   takes ln(2^(N+2)) tau for a single-pole network *)
let test_eq15_on_single_pole () =
  let bits = 8 in
  let r = 100. and c = 50. in
  let tree, root, load = single_rc r c in
  let tolerance = 1. /. float_of_int (4 * (1 lsl bits)) in
  let measured =
    Rcnet.Transient.settling_time_fs tree ~root ~vstep:1. ~tolerance ~node:load
  in
  let eq15 = Dacmodel.Speed.settling_time_fs ~bits ~tau_fs:(r *. c) in
  Alcotest.(check bool)
    (Printf.sprintf "Eq.15 %.0f vs transient %.0f" eq15 measured)
    true
    (Float.abs (measured -. eq15) /. eq15 < 0.1)

(* cross-check the layout flow: the transient settling time of the real
   spiral MSB net should track its Elmore-based estimate within a small
   factor (Elmore is a first moment, not exact for distributed meshes) *)
let test_layout_net_settling_tracks_elmore () =
  let tech = Tech.Process.finfet_12nm in
  let p = Ccplace.Spiral.place ~bits:6 in
  let layout = Ccroute.Layout.route tech p in
  let net = Extract.Netbuild.build layout ~cap:6 in
  let elmore = Extract.Netbuild.worst_elmore_fs net in
  let worst_cell =
    (* the cell with the largest Elmore delay *)
    let d =
      Rcnet.Elmore.delays net.Extract.Netbuild.tree
        ~root:net.Extract.Netbuild.root
    in
    match Array.to_list net.Extract.Netbuild.cell_nodes with
    | [] -> Alcotest.fail "net has no cells"
    | first :: rest ->
      List.fold_left
        (fun best (n : Rcnet.Rctree.node) ->
           if d.((n :> int)) > d.((best : Rcnet.Rctree.node :> int)) then n
           else best)
        first rest
  in
  let bits = 6 in
  let tolerance = 1. /. float_of_int (4 * (1 lsl bits)) in
  let measured =
    Rcnet.Transient.settling_time_fs net.Extract.Netbuild.tree
      ~root:net.Extract.Netbuild.root ~vstep:1. ~tolerance ~node:worst_cell
  in
  let eq15 = Dacmodel.Speed.settling_time_fs ~bits ~tau_fs:elmore in
  let ratio = measured /. eq15 in
  Alcotest.(check bool)
    (Printf.sprintf "transient %.0f fs vs Eq.15-from-Elmore %.0f fs" measured eq15)
    true
    (ratio > 0.2 && ratio < 2.5)

let prop_settling_scales_with_rc =
  QCheck.Test.make ~name:"settling scales linearly with RC" ~count:30
    QCheck.(pair (float_range 10. 500.) (float_range 1. 50.))
    (fun (r, c) ->
       let tree1, root1, load1 = single_rc r c in
       let tree2, root2, load2 = single_rc (2. *. r) c in
       let settle t root load =
         Rcnet.Transient.settling_time_fs t ~root ~vstep:1. ~tolerance:0.05
           ~node:load
       in
       let s1 = settle tree1 root1 load1 and s2 = settle tree2 root2 load2 in
       Float.abs ((s2 /. s1) -. 2.) < 0.3)

let () =
  Alcotest.run "transient"
    [ ( "single RC",
        [ Alcotest.test_case "exponential" `Quick test_single_rc_exponential;
          Alcotest.test_case "root clamped" `Quick test_root_clamped;
          Alcotest.test_case "monotone" `Quick test_monotone_rise;
          Alcotest.test_case "settling analytic" `Quick test_settling_vs_analytic;
          Alcotest.test_case "bad args" `Quick test_rejects_bad_args;
          Alcotest.test_case "Eq. 15" `Quick test_eq15_on_single_pole ] );
      ( "layout nets",
        [ Alcotest.test_case "tracks Elmore" `Slow test_layout_net_settling_tracks_elmore ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_settling_scales_with_rc ] ) ]
