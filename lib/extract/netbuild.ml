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
  | Strap       (* trunk [i1] to the cell [i2] of one of its attach points *)
  | Driver_via  (* to trunk [i1] *)
  | Bridge_via  (* to trunk [i1] *)
  | Bridge_seg  (* from trunk [i1]'s x to trunk [i2]'s *)
  | Abutment    (* cells [i1] <-> [i2] *)

(* Scratch for the nets of one layout, one net at a time: every array is
   sized for the layout's largest net, so a net allocates nothing in
   proportion to its size.

   [enumerate] numbers the current net's nodes: the root is node 0,
   [node_of_cell] maps each of its cells to its node (-1 elsewhere; the
   next net resets it) and [cell_of] lists them in node order.  Trunk [t]
   is [trunks.(t)]; its event heights — its low end and every attach
   row, ascending, without repeats — are [heights.(h0.(t) .. h0.(t + 1)
   - 1)], and its node at the [i]-th of them is [first.(t) + i].  The
   edges the spanning tree keeps, in tree insertion order, are [ea]--[eb]
   with what each is in [kind], [i1] and [i2]; a scratch made for the
   topology alone has none of these edge arrays and only counts them.
   [values] writes a tree's capacitances and resistances, [rc]'s for a
   solve, and the resistance of each edge's wire or plate part into
   [rw] (a strap adds a via to it; a via edge is the via alone). *)
type scratch = {
  layout : Layout.t;
  node_of_cell : int array;
  cell_of : int array;
  uf : int array;                 (* the union-find's parents *)
  heights : float array;
  h0 : int array;
  first : int array;
  lows : float array;             (* trunk [t]'s low end *)
  by_x : int array;               (* bridged trunks in x order: tap [i]
                                     is node [tap0 + i] *)
  record : bool;
  ea : int array;
  eb : int array;
  kind : edge array;
  i1 : int array;
  i2 : int array;
  rw : float array;
  rc : Rcnet.Rctree.t;
  solver : Rcnet.Elmore.scratch;
  mutable trunks : Layout.trunk array;
  mutable delays : float array;   (* the last solve's, in [solver] *)
  mutable n_cells : int;
  mutable n_nodes : int;
  mutable n_edges : int;
}

(* The parts of every accepted tree edge, copied out of the scratch. *)
type provenance = {
  pv_kind : edge array;
  pv_i1 : int array;
  pv_i2 : int array;
  pv_rw : float array;
  pv_trunks : Layout.trunk array;
  pv_heights : float array;
  pv_h0 : int array;
  pv_cols : int;
  pv_rvia : float;
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
        [ Diag.makef ~loc:(Printf.sprintf "C_%d" cap) Verify.Lvs_rules.r_open
            "capacitor has no routed net: no trunk reaches the driver row, \
             so no RC tree can be built" ] }

let routed_net layout cap =
  let net = Layout.net layout cap in
  if net.Layout.cn_trunks = [] then raise (unrouted cap);
  net

let scratch_for ~record (layout : Layout.t) =
  let groups = layout.Layout.groups in
  (* over the nets, bounds on one net's nodes (the root, each trunk's
     events and bridge tap, the groups' cells and each strapped cell
     outside them), trunks and trunk events; while net [k] is counted,
     [owner.(g) = k] exactly for its groups *)
  let owner = Array.make (Group.count groups) (-1) in
  let nodes = ref 1 and trunks = ref 0 and events = ref 0 in
  Array.iteri
    (fun k (net : Layout.capnet) ->
       Array.iter (fun g -> owner.(g) <- k) net.Layout.cn_groups;
       let nt = ref 0 and attaches = ref 0 and outside = ref 0 in
       List.iter
         (fun (tk : Layout.trunk) ->
            incr nt;
            Array.iter
              (fun g ->
                 incr attaches;
                 if g < 0 || g >= Array.length owner || owner.(g) <> k then incr outside)
              tk.Layout.tk_attaches)
         net.Layout.cn_trunks;
       let cells =
         Array.fold_left (fun acc g -> acc + Group.size groups g) 0 net.Layout.cn_groups
       in
       nodes := Int.max !nodes (1 + (2 * !nt) + !attaches + cells + !outside);
       trunks := Int.max !trunks !nt;
       events := Int.max !events (!nt + !attaches))
    layout.Layout.nets;
  let nodes = !nodes and nt = !trunks in
  let p = layout.Layout.placement in
  let edges = if record then nodes - 1 else 0 in
  let rc = Rcnet.Rctree.create () in
  if record then Rcnet.Rctree.refill rc ~nodes ~edges;
  { layout;
    node_of_cell = Array.make (p.Placement.rows * p.Placement.cols) (-1);
    cell_of = Array.make nodes 0;
    uf = Array.make nodes 0;
    heights = Array.make !events 0.;
    h0 = Array.make (nt + 1) 0;
    first = Array.make nt 0;
    lows = Array.make nt 0.;
    by_x = Array.make nt 0;
    record;
    ea = Array.make edges 0;
    eb = Array.make edges 0;
    kind = Array.make edges Trunk_seg;
    i1 = Array.make edges 0;
    i2 = Array.make edges 0;
    rw = Array.make edges 0.;
    rc;
    solver = Rcnet.Elmore.scratch (if record then nodes else 0);
    trunks = [||];
    delays = [||];
    n_cells = 0;
    n_nodes = 0;
    n_edges = 0 }

let scratch layout = scratch_for ~record:true layout

(* The node of cell [id], numbered on first use. *)
let cell_node s id =
  let n = s.node_of_cell.(id) in
  if n >= 0 then n
  else begin
    let n = s.n_nodes in
    s.n_nodes <- n + 1;
    s.node_of_cell.(id) <- n;
    s.cell_of.(s.n_cells) <- id;
    s.n_cells <- s.n_cells + 1;
    n
  end

let rec find uf i =
  if uf.(i) = i then i
  else begin
    uf.(i) <- find uf uf.(i);
    uf.(i)
  end

(* Keeps the edge [a]--[b] when it joins two pieces. *)
let join s a b k x y =
  let ra = find s.uf a and rb = find s.uf b in
  if ra <> rb then begin
    s.uf.(ra) <- rb;
    let e = s.n_edges in
    if s.record then begin
      s.ea.(e) <- a;
      s.eb.(e) <- b;
      s.kind.(e) <- k;
      s.i1.(e) <- x;
      s.i2.(e) <- y
    end;
    s.n_edges <- e + 1
  end

(* trunk [t]'s node at the height [ys.(i)] *)
let trunk_node s t ys i =
  s.first.(t) + event_index s.heights s.h0.(t) s.h0.(t + 1) ys i

(* One net, in two passes: the one place its nodes are numbered and its
   candidate edges listed.  The first pass numbers every node in the
   order the tree creates them: the root, each trunk's event nodes and
   then its strapped cells, the bridge taps in x order, and the cells
   the abutments reach (an abutment's child before its parent).  The
   second walks the candidate edges stage by stage — the driver via and
   bridge, trunk chains, straps, abutments — and a union-find keeps the
   first-added edge joining two pieces and drops the rest: the physical
   net is a mesh (a group strapped to its trunk at several cells plus
   its internal abutments has loops), and Elmore on the spanning tree is
   a conservative estimate of it.  Nodes minus kept edges is the number
   of pieces left. *)
let enumerate s (net : Layout.capnet) =
  let layout = s.layout in
  let cols = layout.Layout.placement.Placement.cols in
  let row_y = layout.Layout.row_y and attach = layout.Layout.plan.Plan.attach in
  for k = 0 to s.n_cells - 1 do
    s.node_of_cell.(s.cell_of.(k)) <- -1
  done;
  s.n_cells <- 0;
  s.n_edges <- 0;
  let trunks = Array.of_list net.Layout.cn_trunks in
  s.trunks <- trunks;
  let nt = Array.length trunks and h0 = s.h0 and first = s.first in
  for t = 0 to nt - 1 do
    h0.(t + 1) <- h0.(t) + events layout s.heights h0.(t) trunks.(t)
  done;
  (* --- pass 1: nodes --- *)
  s.n_nodes <- 1;
  for t = 0 to nt - 1 do
    first.(t) <- s.n_nodes;
    s.n_nodes <- s.n_nodes + h0.(t + 1) - h0.(t);
    let att = trunks.(t).Layout.tk_attaches in
    for i = 0 to Array.length att - 1 do
      ignore (cell_node s attach.(att.(i)))
    done
  done;
  let primary =
    let rec find t =
      if t = nt then invalid_arg "Netbuild.build: net has no primary trunk"
      else if trunks.(t).Layout.tk_primary then t
      else find (t + 1)
    in
    find 0
  in
  (* a bridge tap per trunk in x order (the primary included), sorted
     stably by insertion *)
  let taps = match net.Layout.cn_bridge_y with None -> 0 | Some _ -> nt in
  let by_x = s.by_x in
  for i = 0 to taps - 1 do
    let x = trunks.(i).Layout.tk_x in
    let j = ref i in
    while !j > 0 && Float.compare trunks.(by_x.(!j - 1)).Layout.tk_x x > 0 do
      by_x.(!j) <- by_x.(!j - 1);
      decr j
    done;
    by_x.(!j) <- i
  done;
  let tap0 = s.n_nodes in
  s.n_nodes <- tap0 + taps;
  let groups = layout.Layout.groups in
  let e = groups.Group.tree_edges and gs = net.Layout.cn_groups in
  for x = 0 to Array.length gs - 1 do
    let e0 = Group.edge_first groups gs.(x) in
    for k = e0 to e0 + Group.edges groups gs.(x) - 1 do
      ignore (cell_node s e.((2 * k) + 1));
      ignore (cell_node s e.(2 * k))
    done
  done;
  (* --- pass 2: the spanning tree --- *)
  let uf = s.uf in
  for i = 0 to s.n_nodes - 1 do
    uf.(i) <- i
  done;
  for t = 0 to nt - 1 do
    s.lows.(t) <- trunks.(t).Layout.tk_y_low
  done;
  (* driver input via to the primary trunk's bottom node; the bridge: a
     junction via from each tap to its trunk, then segments along x *)
  join s 0 (trunk_node s primary s.lows primary) Driver_via primary 0;
  for i = 0 to taps - 1 do
    join s (tap0 + i) (trunk_node s by_x.(i) s.lows by_x.(i)) Bridge_via by_x.(i) 0
  done;
  for i = 1 to taps - 1 do
    join s (tap0 + i - 1) (tap0 + i) Bridge_seg by_x.(i - 1) by_x.(i)
  done;
  (* trunks: a chain of nodes at event heights *)
  for t = 0 to nt - 1 do
    for i = 1 to h0.(t + 1) - h0.(t) - 1 do
      join s (first.(t) + i - 1) (first.(t) + i) Trunk_seg t i
    done
  done;
  (* attach straps: via + stub wire to each strapped cell *)
  for t = 0 to nt - 1 do
    let att = trunks.(t).Layout.tk_attaches in
    for i = 0 to Array.length att - 1 do
      let cell = attach.(att.(i)) in
      join s (trunk_node s t row_y (cell / cols)) (cell_node s cell) Strap t cell
    done
  done;
  (* branch (abutment) connections inside each group: they fill in
     whatever the straps did not already connect *)
  for x = 0 to Array.length gs - 1 do
    let e0 = Group.edge_first groups gs.(x) in
    for k = e0 to e0 + Group.edges groups gs.(x) - 1 do
      let a = e.(2 * k) and b = e.((2 * k) + 1) in
      join s (cell_node s a) (cell_node s b) Abutment a b
    done
  done

(* What a net's values read besides its edges: the routing layers, the
   parallel-wire count and the via resistance, checked before the net is
   enumerated. *)
type wiring = {
  m1 : Tech.Layer.t;
  m3 : Tech.Layer.t;
  p : float;
  rvia : float;
}

let wiring (layout : Layout.t) ~cap =
  let tech = layout.Layout.tech in
  let p = layout.Layout.p_of_cap.(cap) in
  let m1 = Tech.Process.layer tech Tech.Layer.M1 in
  let m3 = Tech.Process.layer tech Tech.Layer.M3 in
  { m1; m3; p = float_of_int p; rvia = Tech.Parallel.via_resistance tech ~p }

(* Tech.Parallel.wire_resistance and wire_capacitance of [len] um of a
   [p]-wire bundle, written out: a call across modules is not inlined,
   and would box its float result once per edge. *)
let[@inline] wire_r (layer : Tech.Layer.t) len p = layer.Tech.Layer.resistance *. len /. p
let[@inline] wire_c (layer : Tech.Layer.t) len p = layer.Tech.Layer.capacitance *. len *. p

(* half of a wire's capacitance to each end (pi model) *)
let[@inline] split caps a b c =
  caps.(a) <- caps.(a) +. (c /. 2.);
  caps.(b) <- caps.(b) +. (c /. 2.)

(* The RC annotation of the enumerated net, written into [tree]: a unit
   capacitor at each cell node, and per kept edge its resistance and its
   wire capacitance, half at each end, in the order [Rctree.wire_edge]
   adds them. *)
let values s w tree =
  let layout = s.layout in
  let tech = layout.Layout.tech in
  let cols = layout.Layout.placement.Placement.cols in
  let col_x = layout.Layout.col_x and row_y = layout.Layout.row_y in
  let plate = tech.Tech.Process.plate_resistance and m = s.n_edges in
  Rcnet.Rctree.refill tree ~nodes:s.n_nodes ~edges:m;
  let caps = Rcnet.Rctree.caps tree and res = Rcnet.Rctree.res tree in
  (* each cell's unit capacitor lands before any wire capacitance, so its
     node sums exactly as if created with it *)
  for k = 0 to s.n_cells - 1 do
    caps.(s.node_of_cell.(s.cell_of.(k))) <- tech.Tech.Process.unit_cap
  done;
  Array.blit s.ea 0 (Rcnet.Rctree.ends_a tree) 0 m;
  Array.blit s.eb 0 (Rcnet.Rctree.ends_b tree) 0 m;
  let trunks = s.trunks and rw = s.rw in
  for e = 0 to m - 1 do
    let a = s.ea.(e) and b = s.eb.(e) and x = s.i1.(e) and y = s.i2.(e) in
    match s.kind.(e) with
    | Driver_via | Bridge_via ->
      res.(e) <- w.rvia;
      rw.(e) <- 0.
    | Bridge_seg ->
      let len = Float.abs (trunks.(y).Layout.tk_x -. trunks.(x).Layout.tk_x) in
      let r = wire_r w.m1 len w.p in
      res.(e) <- r;
      rw.(e) <- r;
      split caps a b (wire_c w.m1 len w.p)
    | Trunk_seg ->
      let at = s.h0.(x) + y in
      let len = s.heights.(at) -. s.heights.(at - 1) in
      let r = wire_r w.m3 len w.p in
      res.(e) <- r;
      rw.(e) <- r;
      split caps a b (wire_c w.m3 len w.p)
    | Strap ->
      let len = Float.abs (col_x.(y mod cols) -. trunks.(x).Layout.tk_x) in
      let r = wire_r w.m1 len w.p in
      res.(e) <- w.rvia +. r;
      rw.(e) <- r;
      split caps a b (wire_c w.m1 len w.p)
    | Abutment ->
      let len =
        Float.abs (col_x.(x mod cols) -. col_x.(y mod cols))
        +. Float.abs (row_y.(x / cols) -. row_y.(y / cols))
      in
      let r = plate *. len in
      res.(e) <- r;
      rw.(e) <- r
  done

let build_net s ~cap =
  let net = routed_net s.layout cap in
  let w = wiring s.layout ~cap in
  enumerate s net;
  let tree = Rcnet.Rctree.create () in
  values s w tree;
  let m = s.n_edges and nt = Array.length s.trunks in
  { tree;
    root = Rcnet.Rctree.node_of_int tree 0;
    cells = Array.sub s.cell_of 0 s.n_cells;
    cell_nodes =
      Array.init s.n_cells (fun k ->
          Rcnet.Rctree.node_of_int tree s.node_of_cell.(s.cell_of.(k)));
    provenance =
      { pv_kind = Array.sub s.kind 0 m;
        pv_i1 = Array.sub s.i1 0 m;
        pv_i2 = Array.sub s.i2 0 m;
        pv_rw = Array.sub s.rw 0 m;
        pv_trunks = s.trunks;
        pv_heights = Array.sub s.heights 0 s.h0.(nt);
        pv_h0 = Array.sub s.h0 0 (nt + 1);
        pv_cols = s.layout.Layout.placement.Placement.cols;
        pv_rvia = w.rvia } }

let build layout =
  let s = scratch layout in
  fun ~cap -> build_net s ~cap

let topology layout =
  let s = scratch_for ~record:false layout in
  fun ~cap ->
    enumerate s (routed_net layout cap);
    { modelled = Array.sub s.cell_of 0 s.n_cells; pieces = s.n_nodes - s.n_edges }

let solve s ~cap =
  s.delays <- [||];
  let net = routed_net s.layout cap in
  let w = wiring s.layout ~cap in
  enumerate s net;
  values s w s.rc;
  let d =
    Rcnet.Elmore.delays ~scratch:s.solver s.rc
      ~root:(Rcnet.Rctree.node_of_int s.rc 0)
  in
  s.delays <- d;
  let worst = ref 0. in
  if s.n_cells = 0 then
    for i = 0 to s.n_nodes - 1 do
      worst := Float.max !worst d.(i)
    done
  else
    for k = 0 to s.n_cells - 1 do
      worst := Float.max !worst d.(s.node_of_cell.(s.cell_of.(k)))
    done;
  !worst

let delays s = Array.sub s.delays 0 (Int.min s.n_nodes (Array.length s.delays))

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
  let x = pv.pv_i1.(e) and y = pv.pv_i2.(e) in
  let trunks = pv.pv_trunks in
  let channel t = trunks.(t).Layout.tk_channel in
  match pv.pv_kind.(e) with
  | Trunk_seg ->
    let hs = pv.pv_heights and at = pv.pv_h0.(x) + y in
    Printf.sprintf "trunk M3 ch%d y%.2f->%.2f" (channel x) hs.(at - 1) hs.(at)
  | Strap ->
    Printf.sprintf "strap ch%d->cell%s" (channel x)
      (cell_label pv.pv_cols y)
  | Driver_via -> Printf.sprintf "driver via->trunk ch%d" (channel x)
  | Bridge_via -> Printf.sprintf "bridge via->trunk ch%d" (channel x)
  | Bridge_seg ->
    Printf.sprintf "bridge M1 x%.2f->%.2f" trunks.(x).Layout.tk_x
      trunks.(y).Layout.tk_x
  | Abutment ->
    Printf.sprintf "plate %s<->%s" (cell_label pv.pv_cols x) (cell_label pv.pv_cols y)

(* The parts whose resistances sum to tree edge [e]'s. *)
let parts pv e =
  let via = { pt_kind = Via; pt_layer = "via"; pt_r_ohm = pv.pv_rvia } in
  let wire layer = { pt_kind = Wire; pt_layer = layer; pt_r_ohm = pv.pv_rw.(e) } in
  match pv.pv_kind.(e) with
  | Trunk_seg -> [ wire "M3" ]
  | Strap -> [ via; wire "M1" ]
  | Driver_via | Bridge_via -> [ via ]
  | Bridge_seg -> [ wire "M1" ]
  | Abutment -> [ { pt_kind = Plate; pt_layer = "plate"; pt_r_ohm = pv.pv_rw.(e) } ]

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
  let cols = pv.pv_cols and id = t.cells.(!worst) in
  (Cell.make ~row:(id / cols) ~col:(id mod cols), total, contributions)
