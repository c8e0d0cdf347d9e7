type waveform = {
  times_fs : float array;
  voltages : float array array;
}

(* The tree as Rctree.orient hangs it, for the direct solver. *)
type solver = {
  n : int;
  root : int;
  parent : int array;
  parent_g : float array;     (* conductance to parent, 1/ohm *)
  order : int array;          (* BFS order, root first *)
  cap : float array;          (* grounded capacitance per node, fF *)
}

let min_resistance = 1e-6

let make_solver tree ~root =
  let { Rctree.parent; parent_r; order; _ } = Rctree.orient tree ~root in
  let n = Rctree.num_nodes tree and root = (root : Rctree.node :> int) in
  let parent_g = Array.make n 0. in
  for i = 0 to n - 1 do
    if i <> root then
      parent_g.(i) <- 1. /. Float.max parent_r.(i) min_resistance
  done;
  { n; root; parent; parent_g; order; cap = Rctree.node_caps tree }

(* One backward-Euler step: solve
   (C_i/dt + sum g) v_i - sum g_ij v_j = C_i/dt * v_i^prev,
   with the root clamped to [vstep], by leaf elimination. *)
let step solver ~dt_fs ~vstep v_prev v_next a b =
  let { n; root; parent; parent_g; order; cap } = solver in
  for i = 0 to n - 1 do
    a.(i) <- (cap.(i) /. dt_fs) +. (if i = root then 0. else parent_g.(i));
    b.(i) <- cap.(i) /. dt_fs *. v_prev.(i)
  done;
  (* add child conductances to the diagonal *)
  for i = 0 to n - 1 do
    let p = parent.(i) in
    if p >= 0 then a.(p) <- a.(p) +. parent_g.(i)
  done;
  (* up-sweep: eliminate nodes from the leaves towards the root *)
  for idx = n - 1 downto 1 do
    let i = order.(idx) in
    let p = parent.(i) in
    let g = parent_g.(i) in
    a.(p) <- a.(p) -. (g *. g /. a.(i));
    b.(p) <- b.(p) +. (g *. b.(i) /. a.(i))
  done;
  (* down-sweep *)
  v_next.(root) <- vstep;
  for idx = 1 to n - 1 do
    let i = order.(idx) in
    let p = parent.(i) in
    v_next.(i) <- (b.(i) +. (parent_g.(i) *. v_next.(p))) /. a.(i)
  done

let simulate tree ~root ~vstep ~dt_fs ~steps =
  if dt_fs <= 0. then invalid_arg "Transient.simulate: dt must be positive";
  if steps < 1 then invalid_arg "Transient.simulate: steps must be >= 1";
  let solver = make_solver tree ~root in
  let n = solver.n in
  let a = Array.make n 0. and b = Array.make n 0. in
  let v = Array.make n 0. in
  v.(solver.root) <- vstep;
  let times = Array.make (steps + 1) 0. in
  let voltages = Array.make (steps + 1) (Array.copy v) in
  for s = 1 to steps do
    let next = Array.make n 0. in
    step solver ~dt_fs ~vstep v next a b;
    Array.blit next 0 v 0 n;
    times.(s) <- float_of_int s *. dt_fs;
    voltages.(s) <- Array.copy v
  done;
  Telemetry.Metrics.incr ~n:steps "rcnet/transient_steps_total";
  { times_fs = times; voltages }

let settling_time_fs tree ~root ~vstep ~tolerance ~node =
  if tolerance <= 0. then
    invalid_arg "Transient.settling_time_fs: tolerance must be positive";
  let elmore = Elmore.delay_to tree ~root node in
  let scale = Float.max elmore 1. in
  let dt_fs = scale /. 25. in
  let solver = make_solver tree ~root in
  let n = solver.n in
  let a = Array.make n 0. and b = Array.make n 0. in
  let v = Array.make n 0. in
  v.(solver.root) <- vstep;
  let target = Float.abs (tolerance *. vstep) in
  let node_i = (node : Rctree.node :> int) in
  let max_steps = 50 * 25 in
  let rec advance s =
    if s > max_steps then
      invalid_arg "Transient.settling_time_fs: did not settle within horizon"
    else begin
      let next = Array.make n 0. in
      step solver ~dt_fs ~vstep v next a b;
      Array.blit next 0 v 0 n;
      Telemetry.Metrics.incr "rcnet/transient_steps_total";
      if Float.abs (vstep -. v.(node_i)) <= target then
        float_of_int s *. dt_fs
      else advance (s + 1)
    end
  in
  advance 1

let slowest_settling_fs tree ~root ~vstep ~tolerance ~over =
  List.fold_left
    (fun acc node ->
       Float.max acc (settling_time_fs tree ~root ~vstep ~tolerance ~node))
    0. over
