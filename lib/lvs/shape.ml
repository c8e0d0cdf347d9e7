open Ccgrid
module L = Ccroute.Layout

type kind =
  | Pad
  | Top_pad
  | Branch
  | Stub
  | Trunk
  | Bridge
  | Top_wire
  | Via

let units_per_um = 2000
let unit_nm = 1000. /. float_of_int units_per_um
let tolerance_um = 1e-6
let top = -1

type layer = {
  ids : int array;
  boxes : Geom.Sweepline.boxes;
}

type t = {
  cols : int;
  kind : kind array;
  label : int array;
  pads : int array;
  top_pads : int array;
  col_x : int array;
  row_y : int array;
  drivers : int array;
  layers : layer array;
}

let count t = Array.length t.kind

let layer_index = function
  | Tech.Layer.M1 -> 0
  | Tech.Layer.M2 -> 1
  | Tech.Layer.M3 -> 2

let layer t name = t.layers.(layer_index name)

let label_name l = if l = top then "TOP" else Printf.sprintf "C_%d" l

let kind_name = function
  | Pad -> "pad"
  | Top_pad -> "top-pad"
  | Branch -> "branch"
  | Stub -> "stub"
  | Trunk -> "trunk"
  | Bridge -> "bridge"
  | Top_wire -> "top-wire"
  | Via -> "via"

let cell_name t id = Printf.sprintf "(%d,%d)" (id / t.cols) (id mod t.cols)

let wire_kind = function
  | L.Branch -> Branch
  | L.Stub -> Stub
  | L.Trunk -> Trunk
  | L.Bridge -> Bridge
  | L.Top -> Top_wire

(* [snap v] is [v] in grid units, or [off_grid] when [v] is not within the
   tolerance of a grid point (NaN and infinities included).  Snapped
   coordinates stay within ±2^40 units (550 m), so the sentinel is never
   a coordinate and no key built from them can overflow. *)
let off_grid = min_int
let max_units = float_of_int (1 lsl 40)
let tolerance_units = tolerance_um *. float_of_int units_per_um

let[@inline] snap v =
  let u = v *. float_of_int units_per_um in
  let r = Float.round u in
  if Float.abs (u -. r) <= tolerance_units && Float.abs r <= max_units then
    Float.to_int r
  else off_grid

(* One layer's boxes, filled in shape-id order. *)
type fill = {
  f_ids : int array;
  f_x0 : int array;
  f_y0 : int array;
  f_x1 : int array;
  f_y1 : int array;
  mutable f_n : int;
}

let fill n =
  { f_ids = Array.make n 0; f_x0 = Array.make n 0; f_y0 = Array.make n 0;
    f_x1 = Array.make n 0; f_y1 = Array.make n 0; f_n = 0 }

let add f id x0 y0 x1 y1 =
  let i = f.f_n in
  f.f_ids.(i) <- id;
  f.f_x0.(i) <- x0;
  f.f_y0.(i) <- y0;
  f.f_x1.(i) <- x1;
  f.f_y1.(i) <- y1;
  f.f_n <- i + 1

(* A fill stops short of its size only when rejected shapes were left
   out, and then no layer is read. *)
let layer_of f =
  { ids = f.f_ids;
    boxes =
      { Geom.Sweepline.x0 = f.f_x0; y0 = f.f_y0; x1 = f.f_x1; y1 = f.f_y1 } }

let max_reported = 8

let layers_name l1 l2 =
  let name = function 0 -> "M1" | 1 -> "M2" | _ -> "M3" in
  if l2 < 0 then name l1 else name l1 ^ "+" ^ name l2

(* how a diagnostic names shape [id] of kind [k] on layers [l1], [l2] *)
let where id k l1 l2 =
  Printf.sprintf "shape %d (%s on %s)" id (kind_name k) (layers_name l1 l2)

(* One family of diagnostics: how many shapes it caught, and the
   diagnostics of the first [max_reported], newest first. *)
type tally = {
  mutable caught : int;
  mutable first : Diag.t list;
}

let tally () = { caught = 0; first = [] }

let note t d =
  t.caught <- t.caught + 1;
  if t.caught <= max_reported then t.first <- d () :: t.first

(* the diagnostic counting what [t] caught beyond the first few *)
let rest t rule what =
  if t.caught > max_reported then
    [ Diag.makef rule "%d more %s" (t.caught - max_reported) what ]
  else []

let of_layout (l : L.t) =
  let p = l.L.placement in
  let rows = p.Placement.rows and cols = p.Placement.cols in
  let n_cells = rows * cols in
  let n_pads = ref 0 in
  Array.iter
    (Array.iter (fun k -> if k <> Placement.dummy then incr n_pads))
    p.Placement.assign;
  let n_pads = !n_pads in
  (* boxes per layer: each wire on its layer, each via on M1 and M3.  The
     cell plates get shape ids but no box: they sit on the lattice below,
     where extraction looks them up. *)
  let per_layer = [| 0; 0; 0 |] in
  let count_wires (ws : L.Wires.t) =
    for i = 0 to L.Wires.length ws - 1 do
      let j = layer_index (L.Wires.layer ws i) in
      per_layer.(j) <- per_layer.(j) + 1
    done
  in
  count_wires l.L.wires;
  count_wires l.L.top_wires;
  let n_wires = L.Wires.length l.L.wires + L.Wires.length l.L.top_wires in
  let n_vias = List.length l.L.vias in
  per_layer.(0) <- per_layer.(0) + n_vias;
  per_layer.(2) <- per_layer.(2) + n_vias;
  let n = n_pads + n_cells + n_wires + n_vias in
  let kind = Array.make n Pad and label = Array.make n top in
  let pads = Array.make n_cells (-1) and top_pads = Array.make n_cells 0 in
  let fills = Array.map fill per_layer in
  let off = tally () and unknown = tally () and diagonal = tally () in
  let n_nets = Array.length l.L.nets in
  let next = ref 0 in
  let fresh k lab =
    let id = !next in
    incr next;
    kind.(id) <- k;
    label.(id) <- lab;
    id
  in
  (* the checks of shape [id] labelled [lab] on layer [l1] (and [l2]
     unless negative), spanning (ax, ay)-(bx, by) um =
     [xy.(j)] .. [xy.(j + 3)], snapped to (sax, say)-(sbx, sby): true when
     it is on the grid and runs along at most one axis, so that it has a
     box.  The coordinates stay in their float array, unboxed, until a
     diagnostic prints them. *)
  let check id k lab l1 l2 (xy : float array) j sax say sbx sby =
    (* a via is a net's terminal: only wires and top pads carry TOP *)
    if (lab = top && k = Via) || (lab <> top && (lab < 0 || lab >= n_nets))
    then
      note unknown (fun () ->
          Diag.makef ~loc:(label_name lab) Verify.Lvs_rules.r_unknown_net
            "%s names C_%d, but the layout's nets are C_0..C_%d"
            (where id k l1 l2) lab (n_nets - 1));
    if sax = off_grid || say = off_grid || sbx = off_grid || sby = off_grid
    then begin
      note off (fun () ->
          let ax = xy.(j) and ay = xy.(j + 1) and bx = xy.(j + 2)
          and by = xy.(j + 3) in
          Diag.makef ~loc:(label_name lab) Verify.Lvs_rules.r_off_grid
            "%s at x [%.6f, %.6f] y [%.6f, %.6f] um is off the %g nm grid"
            (where id k l1 l2) (Float.min ax bx) (Float.max ax bx)
            (Float.min ay by) (Float.max ay by) unit_nm);
      false
    end
    else if sax <> sbx && say <> sby then begin
      note diagonal (fun () ->
          Diag.makef ~loc:(label_name lab) Verify.Lvs_rules.r_diagonal
            "%s from (%.6f, %.6f) to (%.6f, %.6f) um runs along both axes"
            (where id k l1 l2) xy.(j) xy.(j + 1) xy.(j + 2) xy.(j + 3));
      false
    end
    else true
  in
  (* a routed shape: a wire, or a via (on M1 and M3) *)
  let emit k lab l1 l2 xy j sax say sbx sby =
    let id = fresh k lab in
    if check id k lab l1 l2 xy j sax say sbx sby then begin
      let x0 = Int.min sax sbx and x1 = Int.max sax sbx in
      let y0 = Int.min say sby and y1 = Int.max say sby in
      add fills.(l1) id x0 y0 x1 y1;
      if l2 >= 0 then add fills.(l2) id x0 y0 x1 y1
    end;
    id
  in
  (* cell plates: bottom pads carry the owning capacitor's net on M1;
     top pads (every cell, dummies included — the physical top plate is
     part of the unit capacitor) carry the shared TOP net on M2.  A plate
     with a known net on the grid needs no check; any other goes through
     the checks for its diagnostics.  A plate's or a via's point goes
     to the checks through [pt] as (x, y, x, y). *)
  let pt = Array.make 4 0. in
  let point x y =
    pt.(0) <- x;
    pt.(1) <- y;
    pt.(2) <- x;
    pt.(3) <- y
  in
  let col_x = l.L.col_x and row_y = l.L.row_y in
  let sx = Array.map snap col_x and sy = Array.map snap row_y in
  for row = 0 to rows - 1 do
    let y = row_y.(row) and s_y = sy.(row) in
    for col = 0 to cols - 1 do
      let x = col_x.(col) and s_x = sx.(col) in
      let on_grid = s_x <> off_grid && s_y <> off_grid in
      let cell = (row * cols) + col in
      let k = p.Placement.assign.(row).(col) in
      if k <> Placement.dummy then begin
        let id = fresh Pad k in
        pads.(cell) <- id;
        if not (on_grid && k >= 0 && k < n_nets) then begin
          point x y;
          ignore (check id Pad k 0 (-1) pt 0 s_x s_y s_x s_y)
        end
      end;
      let id = fresh Top_pad top in
      top_pads.(cell) <- id;
      if not on_grid then begin
        point x y;
        ignore (check id Top_pad top 1 (-1) pt 0 s_x s_y s_x s_y)
      end
    done
  done;
  let wires (ws : L.Wires.t) =
    let xy = ws.L.Wires.xy in
    for i = 0 to L.Wires.length ws - 1 do
      let cap = L.Wires.cap ws i and j = 4 * i in
      ignore
        (emit (wire_kind (L.Wires.kind ws i)) (if cap < 0 then top else cap)
           (layer_index (L.Wires.layer ws i)) (-1) xy j (snap xy.(j))
           (snap xy.(j + 1)) (snap xy.(j + 2)) (snap xy.(j + 3)))
    done
  in
  wires l.L.wires;
  wires l.L.top_wires;
  (* a via at the driver row (y = 0) is the net's input terminal *)
  let drivers = ref [] in
  List.iter
    (fun (v : L.via) ->
       let s_x = snap v.L.v_x and s_y = snap v.L.v_y in
       point v.L.v_x v.L.v_y;
       let id = emit Via v.L.v_cap 0 2 pt 0 s_x s_y s_x s_y in
       if s_y <> off_grid && s_y <= 0 then drivers := id :: !drivers)
    l.L.vias;
  if off.caught > 0 || unknown.caught > 0 || diagonal.caught > 0 then
    Error
      (Diag.sort
         (rest off Verify.Lvs_rules.r_off_grid
            (Printf.sprintf "shapes off the %g nm grid" unit_nm)
          @ rest unknown Verify.Lvs_rules.r_unknown_net
            "shapes name no net of the layout"
          @ rest diagonal Verify.Lvs_rules.r_diagonal
            "wires run along both axes"
          @ off.first @ unknown.first @ diagonal.first))
  else
    Ok
      { cols;
        kind;
        label;
        pads;
        top_pads;
        col_x = sx;
        row_y = sy;
        drivers = Array.of_list (List.rev !drivers);
        layers = Array.map layer_of fills }
