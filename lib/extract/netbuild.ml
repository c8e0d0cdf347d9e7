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
  | Strap       (* trunk [i1] to cell [i2] *)
  | Driver_via  (* to trunk [i1] *)
  | Bridge_via  (* to trunk [i1] *)
  | Bridge_seg  (* from trunk [i1]'s x to trunk [i2]'s *)
  | Abutment    (* cells [i1] <-> [i2] *)

(* The accepted tree edges in Rctree insertion order: what each is, and
   the resistance [rw] of its wire or plate part (a strap adds a via of
   [rvia] to it; a via edge is [rvia] alone). *)
type provenance = {
  kind : edge array;
  i1 : int array;
  i2 : int array;
  rw : float array;
  trunks : Layout.trunk array;
  heights : float array array;
  cols : int;
  rvia : float;
}

type t = {
  tree : Rcnet.Rctree.t;
  root : Rcnet.Rctree.node;
  cells : Cell.t array;
  cell_nodes : Rcnet.Rctree.node array;
  provenance : provenance;
}

let part_kind_name = function
  | Via -> "via"
  | Wire -> "wire"
  | Plate -> "plate"

(* [index_of ys y] is the position of [y] in the sorted array [ys]. *)
let index_of ys y =
  let a = ref 0 and z = ref (Array.length ys) in
  while !a < !z do
    let m = (!a + !z) / 2 in
    if ys.(m) < y then a := m + 1 else z := m
  done;
  if !a < Array.length ys && Float.equal ys.(!a) y then !a
  else invalid_arg "Netbuild.build: attach height is not a trunk event"

(* A trunk's event heights: its low end and every attach row, sorted,
   without repeats. *)
let events (tk : Layout.trunk) =
  let ys =
    Array.of_list
      (tk.Layout.tk_y_low
       :: List.map (fun a -> a.Layout.ap_y) tk.Layout.tk_attaches)
  in
  Array.sort Float.compare ys;
  let k = ref 0 in
  Array.iteri
    (fun i y ->
       if i = 0 || not (Float.equal y ys.(!k - 1)) then begin
         ys.(!k) <- y;
         incr k
       end)
    ys;
  Array.sub ys 0 !k

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

(* One net, in two passes.  The first creates every node in the order
   the tree numbers them: the root, each trunk's event nodes and then
   its strapped cells, the bridge taps in x order, and the cells the
   abutments reach (an abutment's child before its parent).  The second
   walks the candidate edges stage by stage — the driver via and bridge,
   trunk chains, straps, abutments — and a union-find keeps the
   first-added edge joining two pieces and drops the rest: the physical
   net is a mesh (a group strapped to its trunk at several cells plus its
   internal abutments has loops), and Elmore on the spanning tree is a
   conservative estimate of it.  [node_of_cell] maps cell ids to this
   net's cell nodes (-1 elsewhere) and is reset before returning. *)
let build_net (layout : Layout.t) node_of_cell ~cap =
  let tech = layout.Layout.tech in
  let net = Layout.net layout cap in
  if net.Layout.cn_trunks = [] then raise (unrouted cap);
  let p = layout.Layout.p_of_cap.(cap) in
  let m1 = Tech.Process.layer tech Tech.Layer.M1 in
  let m3 = Tech.Process.layer tech Tech.Layer.M3 in
  let rvia = Tech.Parallel.via_resistance tech ~p in
  let cols = layout.Layout.placement.Placement.cols in
  let col_x = layout.Layout.col_x and row_y = layout.Layout.row_y in
  let trunks = Array.of_list net.Layout.cn_trunks in
  let heights = Array.map events trunks in
  (* --- unit-capacitor cell nodes, created on first use; a valid net
     has exactly its groups' cells --- *)
  let size =
    List.fold_left
      (fun acc (g : Group.t) -> acc + List.length g.Group.cells)
      0 net.Layout.cn_groups
    |> Int.max 1
  in
  (* pass 1 below creates the root, the trunks' event nodes, the cells
     and, with a bridge, one tap per trunk *)
  let tree = Rcnet.Rctree.create () in
  Rcnet.Rctree.reserve_nodes tree
    (1
     + Array.fold_left (fun acc ys -> acc + Array.length ys) 0 heights
     + size
     + if net.Layout.cn_bridge_y = None then 0 else Array.length trunks);
  let node c = Rcnet.Rctree.add_node tree ~cap:c () in
  let root = node 0. in
  let cells = ref (Array.make size (Cell.make ~row:0 ~col:0)) in
  let cell_nodes = ref (Array.make size root) in
  let n_cells = ref 0 in
  let cell_id (c : Cell.t) = (c.Cell.row * cols) + c.Cell.col in
  let cell_node c =
    let id = cell_id c in
    let n = node_of_cell.(id) in
    if n >= 0 then Rcnet.Rctree.node_of_int tree n
    else begin
      let n = node tech.Tech.Process.unit_cap in
      node_of_cell.(id) <- (n :> int);
      let k = !n_cells in
      if k = Array.length !cells then begin
        cells := Array.append !cells !cells;
        cell_nodes := Array.append !cell_nodes !cell_nodes
      end;
      !cells.(k) <- c;
      !cell_nodes.(k) <- n;
      n_cells := k + 1;
      n
    end
  in
  Fun.protect ~finally:(fun () ->
      for k = 0 to !n_cells - 1 do
        node_of_cell.(cell_id !cells.(k)) <- -1
      done)
  @@ fun () ->
  (* --- pass 1: nodes.  Trunk [t]'s node at height [heights.(t).(i)] is
     [first.(t) + i]. --- *)
  let first = Array.make (Array.length trunks) 0 in
  Array.iteri
    (fun t (tk : Layout.trunk) ->
       first.(t) <- (node 0. :> int);
       for _ = 2 to Array.length heights.(t) do
         ignore (node 0.)
       done;
       List.iter
         (fun (a : Layout.attach_point) -> ignore (cell_node a.Layout.ap_cell))
         tk.Layout.tk_attaches)
    trunks;
  let primary =
    let rec find t =
      if t = Array.length trunks then
        invalid_arg "Netbuild.build: net has no primary trunk"
      else if trunks.(t).Layout.tk_primary then t
      else find (t + 1)
    in
    find 0
  in
  (* a bridge tap per trunk in x order (the primary included) *)
  let by_x =
    match net.Layout.cn_bridge_y with
    | None -> [||]
    | Some _ ->
      let by_x = Array.init (Array.length trunks) Fun.id in
      Array.stable_sort
        (fun a b ->
           Float.compare trunks.(a).Layout.tk_x trunks.(b).Layout.tk_x)
        by_x;
      by_x
  in
  let taps = Array.map (fun _ -> node 0.) by_x in
  List.iter
    (fun (g : Group.t) ->
       List.iter
         (fun ((a : Cell.t), (b : Cell.t)) ->
            ignore (cell_node b);
            ignore (cell_node a))
         g.Group.tree_edges)
    net.Layout.cn_groups;
  (* --- pass 2: the spanning tree --- *)
  let n_nodes = Rcnet.Rctree.num_nodes tree in
  let parent = Array.init n_nodes Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  let n_edges = Int.max 0 (n_nodes - 1) in
  Rcnet.Rctree.reserve_edges tree n_edges;
  let kind = Array.make n_edges Trunk_seg and i1 = Array.make n_edges 0 in
  let i2 = Array.make n_edges 0 and rw = Array.make n_edges 0. in
  let n_acc = ref 0 in
  let edge (a : Rcnet.Rctree.node) (b : Rcnet.Rctree.node) ~r ~c k x y w =
    let ra = find (a :> int) and rb = find (b :> int) in
    if ra <> rb then begin
      parent.(ra) <- rb;
      Rcnet.Rctree.wire_edge tree a b ~r ~c;
      let e = !n_acc in
      kind.(e) <- k;
      i1.(e) <- x;
      i2.(e) <- y;
      rw.(e) <- w;
      n_acc := e + 1
    end
  in
  let trunk_node t y =
    Rcnet.Rctree.node_of_int tree (first.(t) + index_of heights.(t) y)
  in
  let bottom t = trunk_node t trunks.(t).Layout.tk_y_low in
  (* driver input via to the primary trunk's bottom node; the bridge: a
     junction via from each tap to its trunk, then segments along x *)
  edge root (bottom primary) ~r:rvia ~c:0. Driver_via primary 0 0.;
  Array.iteri
    (fun i t -> edge taps.(i) (bottom t) ~r:rvia ~c:0. Bridge_via t 0 0.)
    by_x;
  for i = 1 to Array.length by_x - 1 do
    let a = by_x.(i - 1) and b = by_x.(i) in
    let len = Float.abs (trunks.(b).Layout.tk_x -. trunks.(a).Layout.tk_x) in
    let r = Tech.Parallel.wire_resistance m1 ~length:len ~p in
    edge taps.(i - 1) taps.(i) ~r
      ~c:(Tech.Parallel.wire_capacitance m1 ~length:len ~p)
      Bridge_seg a b r
  done;
  (* trunks: a chain of nodes at event heights *)
  Array.iteri
    (fun t ys ->
       for i = 1 to Array.length ys - 1 do
         let len = ys.(i) -. ys.(i - 1) in
         let r = Tech.Parallel.wire_resistance m3 ~length:len ~p in
         edge
           (Rcnet.Rctree.node_of_int tree (first.(t) + i - 1))
           (Rcnet.Rctree.node_of_int tree (first.(t) + i))
           ~r ~c:(Tech.Parallel.wire_capacitance m3 ~length:len ~p)
           Trunk_seg t i r
       done)
    heights;
  (* attach straps: via + stub wire to each strapped cell *)
  Array.iteri
    (fun t (tk : Layout.trunk) ->
       List.iter
         (fun (a : Layout.attach_point) ->
            let cell = a.Layout.ap_cell in
            let stub_len =
              Float.abs (col_x.(cell.Cell.col) -. a.Layout.ap_x)
            in
            let r_wire = Tech.Parallel.wire_resistance m1 ~length:stub_len ~p in
            edge (trunk_node t a.Layout.ap_y) (cell_node cell)
              ~r:(rvia +. r_wire)
              ~c:(Tech.Parallel.wire_capacitance m1 ~length:stub_len ~p)
              Strap t (cell_id cell) r_wire)
         tk.Layout.tk_attaches)
    trunks;
  (* branch (abutment) connections inside each group: resistance of the
     merged fingers, no routing capacitance; they fill in whatever the
     straps did not already connect *)
  List.iter
    (fun (g : Group.t) ->
       List.iter
         (fun ((a : Cell.t), (b : Cell.t)) ->
            let len =
              Float.abs (col_x.(a.Cell.col) -. col_x.(b.Cell.col))
              +. Float.abs (row_y.(a.Cell.row) -. row_y.(b.Cell.row))
            in
            let r = tech.Tech.Process.plate_resistance *. len in
            edge (cell_node a) (cell_node b) ~r ~c:0. Abutment (cell_id a)
              (cell_id b) r)
         g.Group.tree_edges)
    net.Layout.cn_groups;
  let n = !n_cells in
  { tree;
    root;
    cells = (if n = Array.length !cells then !cells else Array.sub !cells 0 n);
    cell_nodes =
      (if n = Array.length !cell_nodes then !cell_nodes
       else Array.sub !cell_nodes 0 n);
    provenance = { kind; i1; i2; rw; trunks; heights; cols; rvia } }

let builder (layout : Layout.t) =
  let p = layout.Layout.placement in
  let node_of_cell = Array.make (p.Placement.rows * p.Placement.cols) (-1) in
  fun ~cap -> build_net layout node_of_cell ~cap

let build layout ~cap = builder layout ~cap

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
  let channel t = pv.trunks.(t).Layout.tk_channel in
  match pv.kind.(e) with
  | Trunk_seg ->
    Printf.sprintf "trunk M3 ch%d y%.2f->%.2f" (channel x)
      pv.heights.(x).(y - 1) pv.heights.(x).(y)
  | Strap -> Printf.sprintf "strap ch%d->cell%s" (channel x) (cell_label pv.cols y)
  | Driver_via -> Printf.sprintf "driver via->trunk ch%d" (channel x)
  | Bridge_via -> Printf.sprintf "bridge via->trunk ch%d" (channel x)
  | Bridge_seg ->
    Printf.sprintf "bridge M1 x%.2f->%.2f" pv.trunks.(x).Layout.tk_x
      pv.trunks.(y).Layout.tk_x
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
  (t.cells.(!worst), total, contributions)
