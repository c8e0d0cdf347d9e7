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

(* --- the list-based orientation, kept as the oracle --- *)

(* What Rctree.orient replaced: cons-built adjacency lists (each node's
   edges in reverse insertion order) and a Queue BFS; then the Elmore
   sums and the transient solver exactly as they were written on it. *)
type reference = {
  parent : int array;
  parent_r : float array;
  parent_edge : int array;
  order : int array;
}

let reference_orient tree ~root =
  let n = Rcnet.Rctree.num_nodes tree in
  let adj = Array.make n [] in
  for i = 0 to Rcnet.Rctree.num_edges tree - 1 do
    let a, b, r = Rcnet.Rctree.edge tree i in
    let a = (a : Rcnet.Rctree.node :> int) and b = (b : Rcnet.Rctree.node :> int) in
    adj.(a) <- (b, r, i) :: adj.(a);
    adj.(b) <- (a, r, i) :: adj.(b)
  done;
  let root = (root : Rcnet.Rctree.node :> int) in
  let parent = Array.make n (-2) in
  let parent_r = Array.make n 0. in
  let parent_edge = Array.make n (-1) in
  let order = Array.make n root in
  let q = Queue.create () in
  parent.(root) <- -1;
  Queue.add root q;
  let idx = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order.(!idx) <- u;
    incr idx;
    List.iter
      (fun (v, r, i) ->
         if parent.(v) = -2 then begin
           parent.(v) <- u;
           parent_r.(v) <- r;
           parent_edge.(v) <- i;
           Queue.add v q
         end)
      adj.(u)
  done;
  { parent; parent_r; parent_edge; order }

let reference_subtree tree o =
  let n = Rcnet.Rctree.num_nodes tree in
  let subtree =
    Array.init n (fun i ->
        Rcnet.Rctree.node_cap tree (Rcnet.Rctree.node_of_int tree i))
  in
  for i = n - 1 downto 1 do
    let u = o.order.(i) in
    if o.parent.(u) >= 0 then
      subtree.(o.parent.(u)) <- subtree.(o.parent.(u)) +. subtree.(u)
  done;
  subtree

let reference_delays tree ~root =
  let o = reference_orient tree ~root in
  let subtree = reference_subtree tree o in
  let n = Rcnet.Rctree.num_nodes tree in
  let delay = Array.make n 0. in
  for i = 1 to n - 1 do
    let u = o.order.(i) in
    delay.(u) <- delay.(o.parent.(u)) +. (o.parent_r.(u) *. subtree.(u))
  done;
  delay

let reference_path_resistance tree ~root n =
  let o = reference_orient tree ~root in
  let rec walk u acc =
    if o.parent.(u) < 0 then acc else walk o.parent.(u) (acc +. o.parent_r.(u))
  in
  walk (n : Rcnet.Rctree.node :> int) 0.

(* (edge, upstream, downstream, r, c_downstream, delay) root-first *)
let reference_breakdown tree ~root n =
  let o = reference_orient tree ~root in
  let subtree = reference_subtree tree o in
  let rec walk u acc =
    if o.parent.(u) < 0 then acc
    else
      walk o.parent.(u)
        (( o.parent_edge.(u), o.parent.(u), u, o.parent_r.(u), subtree.(u),
           o.parent_r.(u) *. subtree.(u) )
         :: acc)
  in
  walk (n : Rcnet.Rctree.node :> int) []

let breakdown_tuples tree ~root n =
  List.map
    (fun (c : Rcnet.Elmore.contribution) ->
       ( c.Rcnet.Elmore.edge,
         (c.Rcnet.Elmore.upstream :> int),
         (c.Rcnet.Elmore.downstream :> int),
         c.Rcnet.Elmore.r,
         c.Rcnet.Elmore.c_downstream,
         c.Rcnet.Elmore.delay ))
    (Rcnet.Elmore.breakdown tree ~root n)

(* the backward-Euler solver on the reference orientation *)
let reference_waveform tree ~root ~vstep ~dt_fs ~steps =
  let o = reference_orient tree ~root in
  let n = Rcnet.Rctree.num_nodes tree in
  let root = (root : Rcnet.Rctree.node :> int) in
  let parent_g = Array.make n 0. in
  for i = 0 to n - 1 do
    if i <> root then
      (* Transient's floor on an edge resistance, 1e-6 ohm *)
      parent_g.(i) <- 1. /. Float.max o.parent_r.(i) 1e-6
  done;
  let cap =
    Array.init n (fun i ->
        Rcnet.Rctree.node_cap tree (Rcnet.Rctree.node_of_int tree i))
  in
  let a = Array.make n 0. and b = Array.make n 0. in
  let v = Array.make n 0. in
  v.(root) <- vstep;
  let out = Array.make (steps + 1) (Array.copy v) in
  for s = 1 to steps do
    for i = 0 to n - 1 do
      a.(i) <- (cap.(i) /. dt_fs) +. (if i = root then 0. else parent_g.(i));
      b.(i) <- cap.(i) /. dt_fs *. v.(i)
    done;
    for i = 0 to n - 1 do
      let p = o.parent.(i) in
      if p >= 0 then a.(p) <- a.(p) +. parent_g.(i)
    done;
    for idx = n - 1 downto 1 do
      let i = o.order.(idx) in
      let p = o.parent.(i) in
      let g = parent_g.(i) in
      a.(p) <- a.(p) -. (g *. g /. a.(i));
      b.(p) <- b.(p) +. (g *. b.(i) /. a.(i))
    done;
    let next = Array.make n 0. in
    next.(root) <- vstep;
    for idx = 1 to n - 1 do
      let i = o.order.(idx) in
      let p = o.parent.(i) in
      next.(i) <- (b.(i) +. (parent_g.(i) *. next.(p))) /. a.(i)
    done;
    Array.blit next 0 v 0 n;
    out.(s) <- Array.copy v
  done;
  out

let bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* first disagreement of the flat-array Elmore, breakdown, path
   resistance and (when [steps > 0]) transient waveform with the
   reference on [tree], as a message *)
let disagreement ?(steps = 0) ~cells tree ~root =
  let d = Rcnet.Elmore.delays tree ~root and e = reference_delays tree ~root in
  let bad = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !bad = None then bad := Some m) fmt in
  Array.iteri
    (fun i x ->
       if not (bits_equal x e.(i)) then fail "delay of node %d: %h, reference %h" i x e.(i))
    d;
  List.iter
    (fun n ->
       let r = Rcnet.Elmore.path_resistance tree ~root n in
       let r' = reference_path_resistance tree ~root n in
       if not (bits_equal r r') then
         fail "path resistance to %d: %h, reference %h" (n :> int) r r';
       let c = breakdown_tuples tree ~root n and c' = reference_breakdown tree ~root n in
       let same (e1, u1, d1, r1, c1, x1) (e2, u2, d2, r2, c2, x2) =
         e1 = e2 && u1 = u2 && d1 = d2 && bits_equal r1 r2 && bits_equal c1 c2
         && bits_equal x1 x2
       in
       if not (List.equal same c c') then fail "breakdown to node %d differs" (n :> int))
    cells;
  if steps > 0 then begin
    let dt_fs = Float.max 1. (Array.fold_left Float.max 0. d /. 20.) in
    let w = Rcnet.Transient.simulate tree ~root ~vstep:1. ~dt_fs ~steps in
    let w' = reference_waveform tree ~root ~vstep:1. ~dt_fs ~steps in
    Array.iteri
      (fun s v ->
         Array.iteri
           (fun i x ->
              if not (bits_equal x w'.(s).(i)) then
                fail "step %d node %d: %h, reference %h" s i x w'.(s).(i))
           v)
      w.Rcnet.Transient.voltages
  end;
  !bad

(* Every net of the signoff_pnr designs (rowwise, chessboard, spiral and
   the default block chessboard at 6/8/10/12 bits) and of test_regression's
   golden designs (every block-chess granularity at 6-10 bits), routed
   with the flow's parallel-wire policy: bitwise-equal delays on every
   node, breakdowns and path resistances to the worst cell and to up to
   16 cells spread over the net, and 6-bit transient waveforms. *)
let test_layout_nets_match_reference () =
  let designs =
    List.concat_map
      (fun bits ->
         List.map (fun style -> (bits, style))
           (Ccplace.Style.[ Rowwise; Chessboard; Spiral ]
            @ Ccplace.Style.block_family ~bits))
      [ 6; 7; 8; 9; 10 ]
    @ List.concat_map
      (fun bits ->
         List.map (fun style -> (bits, style))
           Ccplace.Style.[ Rowwise; Chessboard; Spiral; block_default ~bits ])
      [ 12 ]
  in
  List.iter
    (fun (bits, style) ->
       let layout =
         Ccroute.Layout.route Tech.Process.finfet_12nm
           ~p_of_cap:(Ccdac.Flow.default_parallel ~bits style)
           (Ccplace.Style.place ~bits style)
       in
       for cap = 0 to bits do
         let nb = Extract.Netbuild.build layout ~cap in
         let tree = nb.Extract.Netbuild.tree and root = nb.Extract.Netbuild.root in
         let cells = nb.Extract.Netbuild.cell_nodes in
         let worst, _, _ = Extract.Netbuild.attribution nb in
         let worst =
           let id =
             (worst.Ccgrid.Cell.row * layout.Ccroute.Layout.placement.Ccgrid.Placement.cols)
             + worst.Ccgrid.Cell.col
           in
           let i = ref 0 in
           Array.iteri (fun j c -> if c = id then i := j) nb.Extract.Netbuild.cells;
           cells.(!i)
         in
         let stride = Int.max 1 (Array.length cells / 16) in
         let sample =
           worst :: List.filteri (fun i _ -> i mod stride = 0) (Array.to_list cells)
         in
         match
           disagreement ~steps:(if bits = 6 then 8 else 0) ~cells:sample tree ~root
         with
         | None -> ()
         | Some m ->
           Alcotest.failf "%s %d-bit C_%d: %s" (Ccplace.Style.name style) bits cap m
       done)
    designs

(* random trees: node count, parent links, edge insertion order, endpoint
   order and root all drawn; every node's breakdown and path resistance
   and a short waveform checked *)
let random_tree_arb =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "nodes=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 1 60) (int_bound 1_000_000))

let prop_random_trees_match_reference =
  QCheck.Test.make ~name:"flat orientation = list orientation" ~count:300
    random_tree_arb
    (fun (n, seed) ->
       let rng = Random.State.make [| seed |] in
       let t = Rcnet.Rctree.create () in
       let nodes =
         Array.init n (fun _ -> node t (Random.State.float rng 10.))
       in
       let edges =
         Array.init (n - 1) (fun i ->
             let child = i + 1 in
             let parent = Random.State.int rng child in
             if Random.State.bool rng then (parent, child) else (child, parent))
       in
       for i = Array.length edges - 1 downto 1 do
         let j = Random.State.int rng (i + 1) in
         let x = edges.(i) in
         edges.(i) <- edges.(j);
         edges.(j) <- x
       done;
       Array.iter
         (fun (a, b) ->
            Rcnet.Rctree.add_edge t nodes.(a) nodes.(b)
              ~r:(Random.State.float rng 100.))
         edges;
       let root = nodes.(Random.State.int rng n) in
       match disagreement ~steps:5 ~cells:(Array.to_list nodes) t ~root with
       | None -> true
       | Some m -> QCheck.Test.fail_report m)

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
          Alcotest.test_case "path resistance" `Quick test_path_resistance;
          Alcotest.test_case "layout nets = list orientation" `Slow
            test_layout_nets_match_reference ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_ladder_monotone; prop_ladder_analytic; prop_more_cap_more_delay;
            prop_random_trees_match_reference ] ) ]
