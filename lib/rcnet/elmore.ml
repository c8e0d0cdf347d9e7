(* Hang the tree from the root (Rctree.orient), then accumulate subtree
   capacitances bottom-up and delays top-down. *)

type scratch = {
  orientation : Rctree.scratch;
  mutable work : float array;
}

let scratch n = { orientation = Rctree.scratch n; work = Array.make (Int.max n 0) 0. }

(* Subtree capacitances, summed in reverse BFS order into [d]'s first
   [num_nodes tree] slots. *)
let subtree_caps tree (o : Rctree.orientation) d =
  let n = Rctree.num_nodes tree in
  Array.blit (Rctree.caps tree) 0 d 0 n;
  let parent = o.Rctree.parent and order = o.Rctree.order in
  for i = n - 1 downto 1 do
    let u = order.(i) in
    d.(parent.(u)) <- d.(parent.(u)) +. d.(u)
  done

let delays ?scratch tree ~root =
  let n = Rctree.num_nodes tree in
  if Telemetry.Metrics.enabled () then begin
    Telemetry.Metrics.incr "rcnet/elmore_solves_total";
    Telemetry.Metrics.observe "rcnet/nodes" (float_of_int n);
    Telemetry.Metrics.observe "rcnet/edges"
      (float_of_int (Rctree.num_edges tree))
  end;
  let o, d =
    match scratch with
    | None -> (Rctree.orient tree ~root, Array.make n 0.)
    | Some s ->
      let o = Rctree.orient ~scratch:s.orientation tree ~root in
      if Array.length s.work < n then s.work <- Array.make n 0.;
      (o, s.work)
  in
  let parent = o.Rctree.parent and parent_r = o.Rctree.parent_r in
  let order = o.Rctree.order in
  (* the subtree capacitances become the delays in place: in BFS order a
     node's parent slot already holds the parent's delay *)
  subtree_caps tree o d;
  d.(order.(0)) <- 0.;
  for i = 1 to n - 1 do
    let u = order.(i) in
    d.(u) <- d.(parent.(u)) +. (parent_r.(u) *. d.(u))
  done;
  d

let delay_to tree ~root n = (delays tree ~root).((n : Rctree.node :> int))

let max_delay tree ~root ~over =
  let d = delays tree ~root in
  match over with
  | [] -> Array.fold_left Float.max 0. d
  | nodes ->
    List.fold_left
      (fun acc n -> Float.max acc d.((n : Rctree.node :> int)))
      0. nodes

let path_resistance tree ~root n =
  let { Rctree.parent; parent_r; _ } = Rctree.orient tree ~root in
  let rec walk u acc =
    if parent.(u) < 0 then acc else walk parent.(u) (acc +. parent_r.(u))
  in
  walk ((n : Rctree.node :> int)) 0.

type contribution = {
  edge : int;
  upstream : Rctree.node;
  downstream : Rctree.node;
  r : float;
  c_downstream : float;
  delay : float;
}

let breakdown tree ~root n =
  let o = Rctree.orient tree ~root in
  let { Rctree.parent; parent_r; parent_edge; _ } = o in
  let subtree = Array.make (Rctree.num_nodes tree) 0. in
  subtree_caps tree o subtree;
  (* the root->n path, root-first; each edge contributes R_e * C_subtree(e) *)
  let rec walk u acc =
    if parent.(u) < 0 then acc
    else
      let c =
        { edge = parent_edge.(u);
          upstream = Rctree.node_of_int tree parent.(u);
          downstream = Rctree.node_of_int tree u;
          r = parent_r.(u);
          c_downstream = subtree.(u);
          delay = parent_r.(u) *. subtree.(u) }
      in
      walk parent.(u) (c :: acc)
  in
  walk ((n : Rctree.node :> int)) []
