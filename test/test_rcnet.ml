(* Tests for the RC-tree substrate and Elmore delay (Sec. III-B). *)

let check_float = Alcotest.(check (float 1e-9))

let node tree cap = Rcnet.Rctree.add_node tree ~cap ()

(* --- rctree --- *)

let test_rctree_basics () =
  let t = Rcnet.Rctree.create () in
  let a = node t 1. in
  let b = node t 2. in
  Rcnet.Rctree.add_edge t a b ~r:5.;
  Alcotest.(check int) "nodes" 2 (Rcnet.Rctree.num_nodes t);
  Alcotest.(check int) "edges" 1 (Rcnet.Rctree.num_edges t);
  check_float "cap a" 1. (Rcnet.Rctree.node_cap t a);
  check_float "total" 3. (Rcnet.Rctree.total_cap t)

let test_rctree_add_cap () =
  let t = Rcnet.Rctree.create () in
  let a = node t 1. in
  Rcnet.Rctree.add_cap t a 2.5;
  check_float "accumulates" 3.5 (Rcnet.Rctree.node_cap t a)

let test_rctree_wire_edge_splits () =
  let t = Rcnet.Rctree.create () in
  let a = node t 0. in
  let b = node t 0. in
  Rcnet.Rctree.wire_edge t a b ~r:1. ~c:4.;
  check_float "half at a" 2. (Rcnet.Rctree.node_cap t a);
  check_float "half at b" 2. (Rcnet.Rctree.node_cap t b)

let test_rctree_grows () =
  let t = Rcnet.Rctree.create () in
  let nodes = Array.init 100 (fun _ -> node t 1.) in
  Alcotest.(check int) "100 nodes" 100 (Rcnet.Rctree.num_nodes t);
  check_float "caps kept" 1. (Rcnet.Rctree.node_cap t nodes.(73))

let test_rctree_rejects () =
  let t = Rcnet.Rctree.create () in
  let a = node t 0. in
  Alcotest.(check bool) "self loop" true
    (try Rcnet.Rctree.add_edge t a a ~r:1.; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative r" true
    (try
       let b = node t 0. in
       Rcnet.Rctree.add_edge t a b ~r:(-1.); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative cap" true
    (try ignore (Rcnet.Rctree.add_node t ~cap:(-1.) ()); false
     with Invalid_argument _ -> true)

(* --- elmore --- *)

let test_elmore_single_rc () =
  (* driver --R--> load C: tau = R * C *)
  let t = Rcnet.Rctree.create () in
  let root = node t 0. in
  let load = node t 10. in
  Rcnet.Rctree.add_edge t root load ~r:100.;
  check_float "RC" 1000. (Rcnet.Elmore.delay_to t ~root load)

let test_elmore_two_stage_ladder () =
  (* drv -R1- n1(C1) -R2- n2(C2):
     delay(n1) = R1 (C1 + C2); delay(n2) = delay(n1) + R2 C2 *)
  let t = Rcnet.Rctree.create () in
  let root = node t 0. in
  let n1 = node t 3. in
  let n2 = node t 7. in
  Rcnet.Rctree.add_edge t root n1 ~r:10.;
  Rcnet.Rctree.add_edge t n1 n2 ~r:20.;
  let d = Rcnet.Elmore.delays t ~root in
  check_float "n1" (10. *. 10.) d.((n1 : Rcnet.Rctree.node :> int));
  check_float "n2" ((10. *. 10.) +. (20. *. 7.)) d.((n2 : Rcnet.Rctree.node :> int))

let test_elmore_star_balance () =
  (* symmetric star: equal delays on both arms *)
  let t = Rcnet.Rctree.create () in
  let root = node t 0. in
  let hub = node t 1. in
  let l1 = node t 5. in
  let l2 = node t 5. in
  Rcnet.Rctree.add_edge t root hub ~r:2.;
  Rcnet.Rctree.add_edge t hub l1 ~r:4.;
  Rcnet.Rctree.add_edge t hub l2 ~r:4.;
  let d = Rcnet.Elmore.delays t ~root in
  check_float "balanced"
    d.((l1 : Rcnet.Rctree.node :> int))
    d.((l2 : Rcnet.Rctree.node :> int));
  (* hub delay: R_root * total downstream C = 2 * 11 *)
  check_float "hub" 22. d.((hub : Rcnet.Rctree.node :> int))

let test_elmore_root_zero () =
  let t = Rcnet.Rctree.create () in
  let root = node t 5. in
  let leaf = node t 1. in
  Rcnet.Rctree.add_edge t root leaf ~r:1.;
  check_float "root delay 0" 0. (Rcnet.Elmore.delay_to t ~root root)

let test_elmore_max_delay () =
  let t = Rcnet.Rctree.create () in
  let root = node t 0. in
  let near = node t 1. in
  let far = node t 1. in
  Rcnet.Rctree.add_edge t root near ~r:1.;
  Rcnet.Rctree.add_edge t near far ~r:100.;
  check_float "max over subset" (1. *. 2.)
    (Rcnet.Elmore.max_delay t ~root ~over:[ near ]);
  check_float "max over all" (2. +. 100.)
    (Rcnet.Elmore.max_delay t ~root ~over:[])

let test_elmore_rejects_cycle () =
  let t = Rcnet.Rctree.create () in
  let a = node t 0. in
  let b = node t 0. in
  let c = node t 0. in
  Rcnet.Rctree.add_edge t a b ~r:1.;
  Rcnet.Rctree.add_edge t b c ~r:1.;
  Rcnet.Rctree.add_edge t c a ~r:1.;
  Alcotest.(check bool) "cycle rejected" true
    (try ignore (Rcnet.Elmore.delays t ~root:a); false
     with Invalid_argument _ -> true)

let test_elmore_rejects_disconnected () =
  let t = Rcnet.Rctree.create () in
  let a = node t 0. in
  let b = node t 0. in
  let c = node t 0. in
  let d = node t 0. in
  Rcnet.Rctree.add_edge t a b ~r:1.;
  Rcnet.Rctree.add_edge t c d ~r:1.;
  Alcotest.(check bool) "disconnected rejected" true
    (try ignore (Rcnet.Elmore.delays t ~root:a); false
     with Invalid_argument _ -> true)

let test_path_resistance () =
  let t = Rcnet.Rctree.create () in
  let root = node t 0. in
  let n1 = node t 1. in
  let n2 = node t 1. in
  Rcnet.Rctree.add_edge t root n1 ~r:10.;
  Rcnet.Rctree.add_edge t n1 n2 ~r:5.;
  check_float "path R" 15. (Rcnet.Elmore.path_resistance t ~root n2)

(* --- properties --- *)

(* random ladders: Elmore delay is monotone along the ladder and equals the
   analytic double sum *)
let ladder_arb =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 12)
                  (pair (float_range 0.1 50.) (float_range 0.1 20.)))

let build_ladder stages =
  let t = Rcnet.Rctree.create () in
  let root = node t 0. in
  let nodes =
    List.map (fun (_, c) -> node t c) stages
  in
  List.iteri
    (fun i (r, _) ->
       let prev = if i = 0 then root else List.nth nodes (i - 1) in
       Rcnet.Rctree.add_edge t prev (List.nth nodes i) ~r)
    stages;
  (t, root, nodes)

let prop_ladder_monotone =
  QCheck.Test.make ~name:"ladder delays monotone" ~count:100 ladder_arb
    (fun stages ->
       let t, root, nodes = build_ladder stages in
       let d = Rcnet.Elmore.delays t ~root in
       let delays =
         List.map (fun n -> d.((n : Rcnet.Rctree.node :> int))) nodes
       in
       let rec non_decreasing = function
         | a :: (b :: _ as rest) -> a <= b +. 1e-9 && non_decreasing rest
         | [ _ ] | [] -> true
       in
       non_decreasing delays)

let prop_ladder_analytic =
  QCheck.Test.make ~name:"ladder matches analytic Elmore" ~count:100 ladder_arb
    (fun stages ->
       let t, root, nodes = build_ladder stages in
       let d = Rcnet.Elmore.delays t ~root in
       let arr = Array.of_list stages in
       let n = Array.length arr in
       (* delay at last node = sum_i R_i * (sum_{j>=i} C_j) *)
       let expected = ref 0. in
       for i = 0 to n - 1 do
         let downstream = ref 0. in
         for j = i to n - 1 do
           downstream := !downstream +. snd arr.(j)
         done;
         expected := !expected +. (fst arr.(i) *. !downstream)
       done;
       let last = List.nth nodes (n - 1) in
       Float.abs (d.((last : Rcnet.Rctree.node :> int)) -. !expected) < 1e-6)

let prop_more_cap_more_delay =
  QCheck.Test.make ~name:"extra load increases delay" ~count:100
    QCheck.(pair (float_range 0.1 50.) (float_range 0.1 20.))
    (fun (r, c) ->
       let build extra =
         let t = Rcnet.Rctree.create () in
         let root = node t 0. in
         let leaf = node t (c +. extra) in
         Rcnet.Rctree.add_edge t root leaf ~r;
         Rcnet.Elmore.delay_to t ~root leaf
       in
       build 1. > build 0.)

let () =
  Alcotest.run "rcnet"
    [ ( "rctree",
        [ Alcotest.test_case "basics" `Quick test_rctree_basics;
          Alcotest.test_case "add_cap" `Quick test_rctree_add_cap;
          Alcotest.test_case "wire_edge" `Quick test_rctree_wire_edge_splits;
          Alcotest.test_case "grows" `Quick test_rctree_grows;
          Alcotest.test_case "rejects" `Quick test_rctree_rejects ] );
      ( "elmore",
        [ Alcotest.test_case "single RC" `Quick test_elmore_single_rc;
          Alcotest.test_case "two-stage ladder" `Quick test_elmore_two_stage_ladder;
          Alcotest.test_case "star balance" `Quick test_elmore_star_balance;
          Alcotest.test_case "root zero" `Quick test_elmore_root_zero;
          Alcotest.test_case "max delay" `Quick test_elmore_max_delay;
          Alcotest.test_case "rejects cycle" `Quick test_elmore_rejects_cycle;
          Alcotest.test_case "rejects disconnected" `Quick test_elmore_rejects_disconnected;
          Alcotest.test_case "path resistance" `Quick test_path_resistance ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_ladder_monotone; prop_ladder_analytic; prop_more_cap_more_delay ] ) ]
