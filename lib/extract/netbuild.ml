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

(* What a tree edge is.  [attribution] renders it as the edge's label;
   building a net formats no strings. *)
type edge =
  | Trunk_seg of { channel : int; y0 : float; y1 : float }
  | Strap of { channel : int; cell : Cell.t }
  | Driver_via of int
  | Bridge_via of int
  | Bridge_seg of { x0 : float; x1 : float }
  | Abutment of Cell.t * Cell.t

type edge_info = {
  ei_edge : edge;
  ei_parts : part list;
}

type t = {
  tree : Rcnet.Rctree.t;
  root : Rcnet.Rctree.node;
  cell_nodes : (Cell.t * Rcnet.Rctree.node) list;
  edge_infos : edge_info array;
}

let part_kind_name = function
  | Via -> "via"
  | Wire -> "wire"
  | Plate -> "plate"

let edge_label = function
  | Trunk_seg { channel; y0; y1 } ->
    Printf.sprintf "trunk M3 ch%d y%.2f->%.2f" channel y0 y1
  | Strap { channel; cell } ->
    Printf.sprintf "strap ch%d->cell(%d,%d)" channel cell.Cell.row cell.Cell.col
  | Driver_via channel -> Printf.sprintf "driver via->trunk ch%d" channel
  | Bridge_via channel -> Printf.sprintf "bridge via->trunk ch%d" channel
  | Bridge_seg { x0; x1 } -> Printf.sprintf "bridge M1 x%.2f->%.2f" x0 x1
  | Abutment (a, b) ->
    Printf.sprintf "plate (%d,%d)<->(%d,%d)" a.Cell.row a.Cell.col b.Cell.row
      b.Cell.col

(* Union-find over tree nodes: the physical net is a mesh (a group strapped
   to its trunk at several cells plus its internal abutment connections has
   loops); we keep the first-added, lowest-resistance-first spanning tree
   and drop redundant edges.  Elmore on the spanning tree is a conservative
   estimate of the meshed net. *)
module Uf = struct
  let create n = Array.init n (fun i -> i)

  let rec find t i = if t.(i) = i then i else begin
    t.(i) <- find t t.(i);
    t.(i)
  end

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra = rb then false
    else begin
      t.(ra) <- rb;
      true
    end
end

let build (layout : Layout.t) ~cap =
  let tech = layout.Layout.tech in
  let net = Layout.net layout cap in
  if net.Layout.cn_trunks = [] then
    (* an unrouted capacitor is an open, not a programming error: report
       it through the verification gate so callers (ccgen run, the flow's
       lvs stage) print a diagnostic instead of a backtrace *)
    raise
      (Verify.Engine.Rejected
         { what = Printf.sprintf "RC extraction of C_%d" cap;
           diagnostics =
             [ Verify.Diagnostic.makef
                 ~loc:(Printf.sprintf "C_%d" cap)
                 Verify.Lvs_rules.r_open
                 "capacitor has no routed net: no trunk reaches the driver \
                  row, so no RC tree can be built" ] });
  let p = layout.Layout.p_of_cap.(cap) in
  let m1 = Tech.Process.layer tech Tech.Layer.M1 in
  let m3 = Tech.Process.layer tech Tech.Layer.M3 in
  let rvia = Tech.Parallel.via_resistance tech ~p in
  let via_part = { pt_kind = Via; pt_layer = "via"; pt_r_ohm = rvia } in
  let tree = Rcnet.Rctree.create () in
  let node c = Rcnet.Rctree.add_node tree ~cap:c () in
  let root = node 0. in
  (* --- unit-capacitor cell nodes --- *)
  let cell_tbl = Hashtbl.create 64 in
  let cell_node (c : Cell.t) =
    match Hashtbl.find_opt cell_tbl c with
    | Some n -> n
    | None ->
      let n = node tech.Tech.Process.unit_cap in
      Hashtbl.add cell_tbl c n;
      n
  in
  (* --- trunks: a chain of nodes at event heights --- *)
  let trunk_nodes = Hashtbl.create 16 in
  let trunk_edges = ref [] and stub_edges = ref [] in
  let build_trunk (tk : Layout.trunk) =
    let events =
      let attach_ys = List.map (fun a -> a.Layout.ap_y) tk.Layout.tk_attaches in
      List.sort_uniq Float.compare (tk.Layout.tk_y_low :: attach_ys)
    in
    let mk y =
      let n = node 0. in
      Hashtbl.replace trunk_nodes (tk.Layout.tk_channel, y) n;
      n
    in
    let rec chain prev_y prev_node = function
      | [] -> ()
      | y :: rest ->
        let n = mk y in
        let len = y -. prev_y in
        let r = Tech.Parallel.wire_resistance m3 ~length:len ~p in
        trunk_edges :=
          ( prev_node, n, r,
            Tech.Parallel.wire_capacitance m3 ~length:len ~p,
            { ei_edge =
                Trunk_seg { channel = tk.Layout.tk_channel; y0 = prev_y; y1 = y };
              ei_parts = [ { pt_kind = Wire; pt_layer = "M3"; pt_r_ohm = r } ] } )
          :: !trunk_edges;
        chain y n rest
    in
    (match events with
     | [] -> ()
     | y0 :: rest ->
       let n0 = mk y0 in
       chain y0 n0 rest);
    (* attach straps: via + stub wire to each strapped cell *)
    List.iter
      (fun (a : Layout.attach_point) ->
         let trunk_node =
           Hashtbl.find trunk_nodes (tk.Layout.tk_channel, a.Layout.ap_y)
         in
         let stub_len =
           Float.abs
             (layout.Layout.col_x.(a.Layout.ap_cell.Cell.col) -. a.Layout.ap_x)
         in
         let r_wire = Tech.Parallel.wire_resistance m1 ~length:stub_len ~p in
         let r = rvia +. r_wire in
         let c = Tech.Parallel.wire_capacitance m1 ~length:stub_len ~p in
         let info =
           { ei_edge =
               Strap { channel = tk.Layout.tk_channel; cell = a.Layout.ap_cell };
             ei_parts =
               [ via_part;
                 { pt_kind = Wire; pt_layer = "M1"; pt_r_ohm = r_wire } ] }
         in
         stub_edges :=
           (trunk_node, cell_node a.Layout.ap_cell, r, c, info) :: !stub_edges)
      tk.Layout.tk_attaches
  in
  List.iter build_trunk net.Layout.cn_trunks;
  (* --- driver input via to the primary trunk's bottom node --- *)
  let primary =
    match List.find_opt (fun tk -> tk.Layout.tk_primary) net.Layout.cn_trunks with
    | Some tk -> tk
    | None -> invalid_arg "Netbuild.build: net has no primary trunk"
  in
  let trunk_bottom (tk : Layout.trunk) =
    Hashtbl.find trunk_nodes (tk.Layout.tk_channel, tk.Layout.tk_y_low)
  in
  let driver_edges =
    ref
      [ ( root, trunk_bottom primary, rvia, 0.,
          { ei_edge = Driver_via primary.Layout.tk_channel;
            ei_parts = [ via_part ] } ) ]
  in
  (* --- bridge: chain along x, a via to each trunk --- *)
  (match net.Layout.cn_bridge_y with
   | None -> ()
   | Some _bridge_y ->
     let sorted =
       List.sort
         (fun a b -> Float.compare a.Layout.tk_x b.Layout.tk_x)
         net.Layout.cn_trunks
     in
     (* a bridge node per tap; each trunk (the primary included) lands on
        the bridge through one junction via *)
     let bridge_nodes =
       List.map
         (fun (tk : Layout.trunk) ->
            let n = node 0. in
            driver_edges :=
              ( n, trunk_bottom tk, rvia, 0.,
                { ei_edge = Bridge_via tk.Layout.tk_channel;
                  ei_parts = [ via_part ] } )
              :: !driver_edges;
            (n, tk.Layout.tk_x))
         sorted
     in
     let rec chain = function
       | (na, xa) :: ((nb, xb) :: _ as rest) ->
         let len = Float.abs (xb -. xa) in
         let r = Tech.Parallel.wire_resistance m1 ~length:len ~p in
         driver_edges :=
           ( na, nb, r,
             Tech.Parallel.wire_capacitance m1 ~length:len ~p,
             { ei_edge = Bridge_seg { x0 = xa; x1 = xb };
               ei_parts = [ { pt_kind = Wire; pt_layer = "M1"; pt_r_ohm = r } ] } )
           :: !driver_edges;
         chain rest
       | [ _ ] | [] -> ()
     in
     chain bridge_nodes);
  (* --- branch (abutment) connections inside each group: resistance of the
     merged fingers, no routing capacitance --- *)
  let branch_edges = ref [] in
  List.iter
    (fun (g : Group.t) ->
       List.iter
         (fun ((a : Cell.t), (b : Cell.t)) ->
            let pa = Layout.cell_center layout a
            and pb = Layout.cell_center layout b in
            let len = Geom.Point.manhattan pa pb in
            let r = tech.Tech.Process.plate_resistance *. len in
            let info =
              { ei_edge = Abutment (a, b);
                ei_parts =
                  [ { pt_kind = Plate; pt_layer = "plate"; pt_r_ohm = r } ] }
            in
            branch_edges := (cell_node a, cell_node b, r, 0., info) :: !branch_edges)
         g.Group.tree_edges)
    net.Layout.cn_groups;
  (* assemble: trunk chain and driver/bridge edges are acyclic by
     construction; straps connect the trunk to group cells; abutment edges
     fill in whatever the straps did not already connect *)
  let ordered =
    List.rev !driver_edges @ List.rev !trunk_edges @ List.rev !stub_edges
    @ List.rev !branch_edges
  in
  let uf = Uf.create (Rcnet.Rctree.num_nodes tree) in
  let accepted = ref [] in
  List.iter
    (fun (a, b, r, c, info) ->
       if Uf.union uf (a : Rcnet.Rctree.node :> int) (b : Rcnet.Rctree.node :> int)
       then begin
         Rcnet.Rctree.wire_edge tree a b ~r ~c;
         accepted := info :: !accepted
       end)
    ordered;
  let cell_nodes = Hashtbl.fold (fun c n acc -> (c, n) :: acc) cell_tbl [] in
  { tree; root; cell_nodes;
    edge_infos = Array.of_list (List.rev !accepted) }

let worst_elmore_fs t =
  Rcnet.Elmore.max_delay t.tree ~root:t.root ~over:(List.map snd t.cell_nodes)

(* --- per-element attribution (ccgen explain) --- *)

type contribution = {
  nb_label : string;
  nb_kind : part_kind;
  nb_layer : string;
  nb_r_ohm : float;
  nb_c_down_ff : float;
  nb_delay_fs : float;
}

let attribution t =
  let delays = Rcnet.Elmore.delays t.tree ~root:t.root in
  let worst_cell, worst_node =
    match t.cell_nodes with
    | [] -> invalid_arg "Netbuild.attribution: net has no cells"
    | first :: rest ->
      List.fold_left
        (fun ((_, bn) as best) ((_, n) as cand) ->
           if delays.((n : Rcnet.Rctree.node :> int))
              > delays.((bn : Rcnet.Rctree.node :> int))
           then cand
           else best)
        first rest
  in
  let path = Rcnet.Elmore.breakdown t.tree ~root:t.root worst_node in
  let contributions =
    List.concat_map
      (fun (e : Rcnet.Elmore.contribution) ->
         let info = t.edge_infos.(e.Rcnet.Elmore.edge) in
         let label = edge_label info.ei_edge in
         List.map
           (fun pt ->
              { nb_label = label;
                nb_kind = pt.pt_kind;
                nb_layer = pt.pt_layer;
                nb_r_ohm = pt.pt_r_ohm;
                nb_c_down_ff = e.Rcnet.Elmore.c_downstream;
                nb_delay_fs = pt.pt_r_ohm *. e.Rcnet.Elmore.c_downstream })
           info.ei_parts)
      path
  in
  (* report the sum of the parts as the total so the decomposition is
     exact by construction; it agrees with Elmore.delay_to up to float
     association *)
  let total =
    List.fold_left (fun acc c -> acc +. c.nb_delay_fs) 0. contributions
  in
  (worst_cell, total, contributions)
