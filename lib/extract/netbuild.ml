open Ccgrid
open Ccroute

type part_kind =
  | Via
  | Wire
  | Plate

type part = {
  pt_kind : part_kind;
  pt_layer : string;
  pt_r_ohm : float;
}

(* What a tree edge is.  [attribution] renders it as the edge's label
   from the edge's [i1] and [i2]. *)
type edge =
  | Trunk_seg   (* trunk [i1], from its event height [i2 - 1] to [i2] *)
  | Strap       (* trunk [i1] to the cell of the net's attach point [i2] *)
  | Driver_via  (* to trunk [i1] *)
  | Bridge_via  (* to trunk [i1] *)
  | Bridge_seg  (* from trunk [i1]'s x to trunk [i2]'s *)
  | Abutment    (* cells [i1] <-> [i2] *)

(* Pass 1's numbering of one net's nodes.  The root is node 0.  Trunk
   [t]'s event heights — its low end and every attach row, ascending,
   without repeats — are [heights.(h0.(t)) .. heights.(h0.(t + 1) - 1)].
   The net's cells are the row-major cell ids
   [cell_of.(0 .. n_cells - 1)], in node order. *)
type numbering = {
  trunks : Layout.trunk array;
  heights : float array;
  h0 : int array;
  cell_of : int array;
  n_cells : int;
  n_nodes : int;
}

(* The accepted tree edges in Rctree insertion order: what each is, and
   the resistance [rw] of its wire or plate part (a strap adds a via of
   [rvia] to it; a via edge is [rvia] alone).  The net's attach points
   are numbered trunk by trunk, in list order: attach point [j] is on
   cell id [attach_cell.(j)]. *)
type provenance = {
  kind : edge array;
  i1 : int array;
  i2 : int array;
  rw : float array;
  nodes : numbering;
  attach_cell : int array;
  cols : int;
  rvia : float;
}

type t = {
  tree : Rcnet.Rctree.t;
  root : Rcnet.Rctree.node;
  cells : int array;
  cell_nodes : Rcnet.Rctree.node array;
  provenance : provenance;
}

type topology = {
  modelled : int array;
  pieces : int;
}

let part_kind_name = function
  | Via -> "via"
  | Wire -> "wire"
  | Plate -> "plate"

(* Trunk [tk]'s event heights, written from [hs.(at)] on: its low end
   and the row y of each attach cell, where a stub meets it, sorted by
   insertion (a trunk has a handful of events) with the float compare
   applied directly, then repeats dropped in place.  Returns how many
   remain. *)
let events (layout : Layout.t) hs at (tk : Layout.trunk) =
  let cols = layout.Layout.placement.Placement.cols in
  let row_y = layout.Layout.row_y and attach = layout.Layout.plan.Plan.attach in
  hs.(at) <- tk.Layout.tk_y_low;
  let attaches = tk.Layout.tk_attaches in
  for i = 0 to Array.length attaches - 1 do
    hs.(at + 1 + i) <- row_y.(attach.(attaches.(i)) / cols)
  done;
  let stop = at + 1 + Array.length attaches in
  for i = at + 1 to stop - 1 do
    let y = hs.(i) in
    let j = ref i in
    while !j > at && Float.compare hs.(!j - 1) y > 0 do
      hs.(!j) <- hs.(!j - 1);
      decr j
    done;
    hs.(!j) <- y
  done;
  let k = ref (at + 1) in
  for i = at + 1 to stop - 1 do
    if not (Float.equal hs.(i) hs.(!k - 1)) then begin
      hs.(!k) <- hs.(i);
      incr k
    end
  done;
  !k - at

(* [event_index hs lo hi ys i] is the position of [ys.(i)] among the
   sorted heights [hs.(lo .. hi - 1)], counted from [lo].  The height is
   read here, so no float crosses a call. *)
let event_index hs lo hi ys i =
  let y = ys.(i) in
  let a = ref lo and z = ref hi in
  while !a < !z do
    let m = (!a + !z) / 2 in
    if hs.(m) < y then a := m + 1 else z := m
  done;
  if !a < hi && Float.equal hs.(!a) y then !a - lo
  else invalid_arg "Netbuild.build: attach height is not a trunk event"

let unrouted cap =
  (* an unrouted capacitor is an open, not a programming error: report it
     through the verification gate so callers (ccgen run, the flow's lvs
     stage) print a diagnostic instead of a backtrace *)
  Verify.Engine.Rejected
    { what = Printf.sprintf "RC extraction of C_%d" cap;
      diagnostics =
        [ Verify.Diagnostic.makef
            ~loc:(Printf.sprintf "C_%d" cap)
            Verify.Lvs_rules.r_open
            "capacitor has no routed net: no trunk reaches the driver row, \
             so no RC tree can be built" ] }

let routed_net layout cap =
  let net = Layout.net layout cap in
  if net.Layout.cn_trunks = [] then raise (unrouted cap);
  net

(* Scratch shared by the nets of one layout: [node_of_cell] maps cell
   ids to the current net's cell nodes (-1 elsewhere, reset after every
   net) and [parent] is the union-find's, grown to the largest net. *)
type lookup = {
  node_of_cell : int array;
  mutable parent : int array;
}

let lookup (layout : Layout.t) =
  let p = layout.Layout.placement in
  { node_of_cell = Array.make (p.Placement.rows * p.Placement.cols) (-1);
    parent = [||] }

(* One net, in two passes: the one place its nodes are numbered and its
   candidate edges listed.  The first pass numbers every node in the
   order the tree creates them: the root, each trunk's event nodes and
   then its strapped cells, the bridge taps in x order, and the cells
   the abutments reach (an abutment's child before its parent).  [start]
   receives that numbering while [lk.node_of_cell] still maps each of
   the net's cells to its node.  The second pass walks the candidate
   edges stage by stage — the driver via and bridge, trunk chains,
   straps, abutments — and a union-find keeps the first-added edge
   joining two pieces and drops the rest: the physical net is a mesh (a
   group strapped to its trunk at several cells plus its internal
   abutments has loops), and Elmore on the spanning tree is a
   conservative estimate of it.  Each kept edge goes to
   [edge acc a b kind i1 i2], [acc] being what [start] returned, which
   is the result. *)
let enumerate (layout : Layout.t) lk (net : Layout.capnet) ~start ~edge =
  let cols = layout.Layout.placement.Placement.cols in
  let row_y = layout.Layout.row_y in
  let node_of_cell = lk.node_of_cell in
  let trunks = Array.of_list net.Layout.cn_trunks in
  let nt = Array.length trunks in
  let heights =
    Array.make
      (List.fold_left
         (fun acc (tk : Layout.trunk) ->
            acc + 1 + Array.length tk.Layout.tk_attaches)
         0 net.Layout.cn_trunks)
      0.
  in
  let h0 = Array.make (nt + 1) 0 in
  for t = 0 to nt - 1 do
    h0.(t + 1) <- h0.(t) + events layout heights h0.(t) trunks.(t)
  done;
  (* --- unit-capacitor cell nodes, numbered on first use; a valid net
     has exactly its groups' cells --- *)
  let groups = layout.Layout.groups in
  let attach = layout.Layout.plan.Plan.attach in
  let size =
    Array.fold_left (fun acc g -> acc + Group.size groups g) 0 net.Layout.cn_groups
    |> Int.max 1
  in
  let cells = ref (Array.make size 0) in
  let n_cells = ref 0 and n_nodes = ref 1 in
  let cell_node id =
    let n = node_of_cell.(id) in
    if n >= 0 then n
    else begin
      let n = !n_nodes in
      n_nodes := n + 1;
      node_of_cell.(id) <- n;
      let k = !n_cells in
      if k = Array.length !cells then cells := Array.append !cells !cells;
      !cells.(k) <- id;
      n_cells := k + 1;
      n
    end
  in
  Fun.protect ~finally:(fun () ->
      for k = 0 to !n_cells - 1 do
        node_of_cell.(!cells.(k)) <- -1
      done)
  @@ fun () ->
  (* --- pass 1: nodes.  Trunk [t]'s node at its [i]-th event height is
     [first.(t) + i]. --- *)
  let first = Array.make nt 0 in
  for t = 0 to nt - 1 do
    first.(t) <- !n_nodes;
    n_nodes := !n_nodes + h0.(t + 1) - h0.(t);
    Array.iter
      (fun g -> ignore (cell_node attach.(g)))
      trunks.(t).Layout.tk_attaches
  done;
  let primary =
    let rec find t =
      if t = nt then invalid_arg "Netbuild.build: net has no primary trunk"
      else if trunks.(t).Layout.tk_primary then t
      else find (t + 1)
    in
    find 0
  in
  (* a bridge tap per trunk in x order (the primary included): trunk
     [by_x.(i)]'s tap is node [tap0 + i] *)
  let by_x =
    match net.Layout.cn_bridge_y with
    | None -> [||]
    | Some _ ->
      let by_x = Array.init nt Fun.id in
      Array.stable_sort
        (fun a b ->
           Float.compare trunks.(a).Layout.tk_x trunks.(b).Layout.tk_x)
        by_x;
      by_x
  in
  let tap0 = !n_nodes in
  n_nodes := tap0 + Array.length by_x;
  let e = groups.Group.tree_edges in
  Array.iter
    (fun g ->
       let e0 = Group.edge_first groups g in
       for k = e0 to e0 + Group.edges groups g - 1 do
         ignore (cell_node e.((2 * k) + 1));
         ignore (cell_node e.(2 * k))
       done)
    net.Layout.cn_groups;
  let n_nodes = !n_nodes in
  let acc =
    start { trunks; heights; h0; cell_of = !cells; n_cells = !n_cells; n_nodes }
  in
  (* --- pass 2: the spanning tree --- *)
  if Array.length lk.parent < n_nodes then lk.parent <- Array.make n_nodes 0;
  let parent = lk.parent in
  for i = 0 to n_nodes - 1 do
    parent.(i) <- i
  done;
  let rec find i =
    if parent.(i) = i then i
    else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  let join a b k x y =
    let ra = find a and rb = find b in
    if ra <> rb then begin
      parent.(ra) <- rb;
      edge acc a b k x y
    end
  in
  (* trunk [t]'s node at the height [ys.(i)] *)
  let trunk_node t ys i =
    first.(t) + event_index heights h0.(t) h0.(t + 1) ys i
  in
  let lows = Array.make nt 0. in
  Array.iteri (fun t (tk : Layout.trunk) -> lows.(t) <- tk.Layout.tk_y_low) trunks;
  let bottom t = trunk_node t lows t in
  (* driver input via to the primary trunk's bottom node; the bridge: a
     junction via from each tap to its trunk, then segments along x *)
  join 0 (bottom primary) Driver_via primary 0;
  Array.iteri (fun i t -> join (tap0 + i) (bottom t) Bridge_via t 0) by_x;
  for i = 1 to Array.length by_x - 1 do
    join (tap0 + i - 1) (tap0 + i) Bridge_seg by_x.(i - 1) by_x.(i)
  done;
  (* trunks: a chain of nodes at event heights *)
  for t = 0 to nt - 1 do
    for i = 1 to h0.(t + 1) - h0.(t) - 1 do
      join (first.(t) + i - 1) (first.(t) + i) Trunk_seg t i
    done
  done;
  (* attach straps: via + stub wire to each strapped cell *)
  let j = ref 0 in
  for t = 0 to nt - 1 do
    Array.iter
      (fun g ->
         let cell = attach.(g) in
         join (trunk_node t row_y (cell / cols)) (cell_node cell) Strap t !j;
         incr j)
      trunks.(t).Layout.tk_attaches
  done;
  (* branch (abutment) connections inside each group: they fill in
     whatever the straps did not already connect *)
  Array.iter
    (fun g ->
       let e0 = Group.edge_first groups g in
       for k = e0 to e0 + Group.edges groups g - 1 do
         let a = e.(2 * k) and b = e.((2 * k) + 1) in
         join (cell_node a) (cell_node b) Abutment a b
       done)
    net.Layout.cn_groups;
  acc

let prefix a n = if n = Array.length a then a else Array.sub a 0 n

let topology_net layout lk ~cap =
  let accepted = ref 0 in
  let nb =
    enumerate layout lk (routed_net layout cap) ~start:Fun.id
      ~edge:(fun _ _ _ _ _ _ -> incr accepted)
  in
  { modelled = prefix nb.cell_of nb.n_cells; pieces = nb.n_nodes - !accepted }

(* An RC tree under construction: the tree, its cell nodes and its
   edges' provenance. *)
type building = {
  rc : Rcnet.Rctree.t;
  rc_cells : Rcnet.Rctree.node array;
  pv : provenance;
}

(* The RC annotation of [enumerate]: a unit capacitor at each cell node,
   and per kept edge its resistance and its wire capacitance, half at
   each end. *)
let build_net (layout : Layout.t) lk ~cap =
  let net = routed_net layout cap in
  let tech = layout.Layout.tech in
  let p = layout.Layout.p_of_cap.(cap) in
  let m1 = Tech.Process.layer tech Tech.Layer.M1 in
  let m3 = Tech.Process.layer tech Tech.Layer.M3 in
  let rvia = Tech.Parallel.via_resistance tech ~p in
  let cols = layout.Layout.placement.Placement.cols in
  let col_x = layout.Layout.col_x and row_y = layout.Layout.row_y in
  (* the attach points, numbered trunk by trunk: each one's cell id and
     the x at which its stub meets the trunk *)
  let n_attaches =
    List.fold_left
      (fun acc (tk : Layout.trunk) -> acc + Array.length tk.Layout.tk_attaches)
      0 net.Layout.cn_trunks
  in
  let attach_cell = Array.make n_attaches 0
  and attach_x = Array.make n_attaches 0. in
  let j = ref 0 in
  List.iter
    (fun (tk : Layout.trunk) ->
       Array.iter
         (fun g ->
            attach_cell.(!j) <- layout.Layout.plan.Plan.attach.(g);
            attach_x.(!j) <- tk.Layout.tk_x;
            incr j)
         tk.Layout.tk_attaches)
    net.Layout.cn_trunks;
  let start nb =
    let rc = Rcnet.Rctree.create () in
    Rcnet.Rctree.reserve_nodes rc nb.n_nodes;
    for _ = 1 to nb.n_nodes do
      ignore (Rcnet.Rctree.add_node rc ())
    done;
    (* each cell's unit capacitor lands before any wire capacitance,
       so its node sums exactly as if created with it *)
    let cell_nodes =
      Array.init nb.n_cells (fun k ->
          let n = Rcnet.Rctree.node_of_int rc lk.node_of_cell.(nb.cell_of.(k)) in
          Rcnet.Rctree.add_cap rc n tech.Tech.Process.unit_cap;
          n)
    in
    let n_edges = Int.max 0 (nb.n_nodes - 1) in
    Rcnet.Rctree.reserve_edges rc n_edges;
    { rc; rc_cells = cell_nodes;
      pv =
        { kind = Array.make n_edges Trunk_seg; i1 = Array.make n_edges 0;
          i2 = Array.make n_edges 0; rw = Array.make n_edges 0.; nodes = nb;
          attach_cell; cols; rvia } }
  in
  (* a wire edge of [len] um on [layer]; its resistance *)
  let wire rc a b layer len =
    let r = Tech.Parallel.wire_resistance layer ~length:len ~p in
    Rcnet.Rctree.wire_edge rc a b ~r
      ~c:(Tech.Parallel.wire_capacitance layer ~length:len ~p);
    r
  in
  let edge st a b k x y =
    let rc = st.rc in
    let e = Rcnet.Rctree.num_edges rc in
    let a = Rcnet.Rctree.node_of_int rc a
    and b = Rcnet.Rctree.node_of_int rc b in
    let rw =
      match k with
      | Driver_via | Bridge_via ->
        Rcnet.Rctree.wire_edge rc a b ~r:rvia ~c:0.;
        0.
      | Bridge_seg ->
        let trunks = st.pv.nodes.trunks in
        wire rc a b m1
          (Float.abs (trunks.(y).Layout.tk_x -. trunks.(x).Layout.tk_x))
      | Trunk_seg ->
        let hs = st.pv.nodes.heights and at = st.pv.nodes.h0.(x) + y in
        wire rc a b m3 (hs.(at) -. hs.(at - 1))
      | Strap ->
        let stub_len =
          Float.abs (col_x.(attach_cell.(y) mod cols) -. attach_x.(y))
        in
        let r_wire = Tech.Parallel.wire_resistance m1 ~length:stub_len ~p in
        Rcnet.Rctree.wire_edge rc a b ~r:(rvia +. r_wire)
          ~c:(Tech.Parallel.wire_capacitance m1 ~length:stub_len ~p);
        r_wire
      | Abutment ->
        let len =
          Float.abs (col_x.(x mod cols) -. col_x.(y mod cols))
          +. Float.abs (row_y.(x / cols) -. row_y.(y / cols))
        in
        let r = tech.Tech.Process.plate_resistance *. len in
        Rcnet.Rctree.wire_edge rc a b ~r ~c:0.;
        r
    in
    st.pv.kind.(e) <- k;
    st.pv.i1.(e) <- x;
    st.pv.i2.(e) <- y;
    st.pv.rw.(e) <- rw
  in
  let st = enumerate layout lk net ~start ~edge in
  let nb = st.pv.nodes in
  { tree = st.rc;
    root = Rcnet.Rctree.node_of_int st.rc 0;
    cells = prefix nb.cell_of nb.n_cells;
    cell_nodes = st.rc_cells;
    provenance = st.pv }

let builder layout =
  let lk = lookup layout in
  fun ~cap -> build_net layout lk ~cap

let build layout ~cap = builder layout ~cap

let topology layout =
  let lk = lookup layout in
  fun ~cap -> topology_net layout lk ~cap

let worst_elmore_fs t =
  let d = Rcnet.Elmore.delays t.tree ~root:t.root in
  if Array.length t.cell_nodes = 0 then Array.fold_left Float.max 0. d
  else
    Array.fold_left
      (fun acc (n : Rcnet.Rctree.node) -> Float.max acc d.((n :> int)))
      0. t.cell_nodes

(* --- per-element attribution (ccgen explain) --- *)

type contribution = {
  nb_label : string;
  nb_kind : part_kind;
  nb_layer : string;
  nb_r_ohm : float;
  nb_c_down_ff : float;
  nb_delay_fs : float;
}

let cell_label cols id = Printf.sprintf "(%d,%d)" (id / cols) (id mod cols)

let edge_label pv e =
  let x = pv.i1.(e) and y = pv.i2.(e) in
  let trunks = pv.nodes.trunks in
  let channel t = trunks.(t).Layout.tk_channel in
  match pv.kind.(e) with
  | Trunk_seg ->
    let hs = pv.nodes.heights and at = pv.nodes.h0.(x) + y in
    Printf.sprintf "trunk M3 ch%d y%.2f->%.2f" (channel x) hs.(at - 1) hs.(at)
  | Strap ->
    Printf.sprintf "strap ch%d->cell%s" (channel x)
      (cell_label pv.cols pv.attach_cell.(y))
  | Driver_via -> Printf.sprintf "driver via->trunk ch%d" (channel x)
  | Bridge_via -> Printf.sprintf "bridge via->trunk ch%d" (channel x)
  | Bridge_seg ->
    Printf.sprintf "bridge M1 x%.2f->%.2f" trunks.(x).Layout.tk_x
      trunks.(y).Layout.tk_x
  | Abutment ->
    Printf.sprintf "plate %s<->%s" (cell_label pv.cols x) (cell_label pv.cols y)

(* The parts whose resistances sum to tree edge [e]'s. *)
let parts pv e =
  let via = { pt_kind = Via; pt_layer = "via"; pt_r_ohm = pv.rvia } in
  let wire layer = { pt_kind = Wire; pt_layer = layer; pt_r_ohm = pv.rw.(e) } in
  match pv.kind.(e) with
  | Trunk_seg -> [ wire "M3" ]
  | Strap -> [ via; wire "M1" ]
  | Driver_via | Bridge_via -> [ via ]
  | Bridge_seg -> [ wire "M1" ]
  | Abutment -> [ { pt_kind = Plate; pt_layer = "plate"; pt_r_ohm = pv.rw.(e) } ]

let attribution t =
  let delays = Rcnet.Elmore.delays t.tree ~root:t.root in
  if Array.length t.cells = 0 then
    invalid_arg "Netbuild.attribution: net has no cells";
  let delay i = delays.((t.cell_nodes.(i) :> int)) in
  let worst = ref 0 in
  for i = 1 to Array.length t.cells - 1 do
    if delay i > delay !worst then worst := i
  done;
  let path = Rcnet.Elmore.breakdown t.tree ~root:t.root t.cell_nodes.(!worst) in
  let pv = t.provenance in
  let contributions =
    List.concat_map
      (fun (c : Rcnet.Elmore.contribution) ->
         let e = c.Rcnet.Elmore.edge in
         let label = edge_label pv e in
         List.map
           (fun pt ->
              { nb_label = label;
                nb_kind = pt.pt_kind;
                nb_layer = pt.pt_layer;
                nb_r_ohm = pt.pt_r_ohm;
                nb_c_down_ff = c.Rcnet.Elmore.c_downstream;
                nb_delay_fs = pt.pt_r_ohm *. c.Rcnet.Elmore.c_downstream })
           (parts pv e))
      path
  in
  (* report the sum of the parts as the total so the decomposition is
     exact by construction; it agrees with Elmore.delay_to up to float
     association *)
  let total =
    List.fold_left (fun acc c -> acc +. c.nb_delay_fs) 0. contributions
  in
  let cols = pv.cols and id = t.cells.(!worst) in
  (Cell.make ~row:(id / cols) ~col:(id mod cols), total, contributions)
