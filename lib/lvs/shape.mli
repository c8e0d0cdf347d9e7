(** Flattening a routed layout into the drawn-geometry shape set.

    LVS must judge the geometry actually drawn, so the flattener reads
    only the layout's rendered artefacts — placed cell plates, wire
    segments, vias — and never the router's plan or per-net metadata
    (those are the {e intent} the extraction is checked against).

    The shape set is flat: one array per attribute, indexed by shape id.
    Every coordinate is snapped once to the {!unit_nm} grid.  The router
    only halves tech lengths, so a tech given in whole nanometres lands on
    this grid, and both built-in techs land on whole nanometres.  A
    coordinate more than {!tolerance_um} from a grid point is never
    snapped: the shape is reported under [lvs/off-grid] instead.

    Routed metal and cell plates are kept apart.  Each metal layer holds
    the integer boxes of its wires and vias, which extraction sweeps.  The
    cell plates are points on the placement's row/column lattice, so they
    get no box: the shape set keeps the snapped lattice ([col_x],
    [row_y]) and each cell's plate ids, and extraction finds the plates a
    box covers by looking its extent up on the lattice. *)

(** What a shape is.  Constant constructors, so a [kind array] holds no
    pointers. *)
type kind =
  | Pad        (** bottom plate of a placed (non-dummy) cell, on M1 *)
  | Top_pad    (** top plate of every cell, dummies included, on M2 *)
  | Branch
  | Stub
  | Trunk
  | Bridge
  | Top_wire
  | Via        (** logical via joining M1 and M3 *)

(** Grid units per micrometre: one unit is half a nanometre. *)
val units_per_um : int

(** The grid pitch in nanometres, [0.5]. *)
val unit_nm : float

(** How far (um) a coordinate may lie from its grid point and still snap
    to it: [1e-6] um, far below the grid pitch and far above the rounding
    of summed float coordinates. *)
val tolerance_um : float

(** The label of the shared top plate; a capacitor net's label is its
    capacitor id. *)
val top : int

(** The wires and vias drawn on one metal layer: [ids.(i)] is the shape
    id of box [i].  Cell plates have no box (see {!t}). *)
type layer = {
  ids : int array;
  boxes : Geom.Sweepline.boxes;
}

type t = {
  cols : int;            (** placement columns, to name cells *)
  kind : kind array;
  label : int array;     (** capacitor id, or {!top} *)
  pads : int array;      (** per cell [row * cols + col], the shape id of
                             its pad (on M1), or -1 for a dummy *)
  top_pads : int array;  (** per cell, the shape id of its top pad (on
                             M2) *)
  col_x : int array;     (** per column, the snapped x of its plates, in
                             grid units *)
  row_y : int array;     (** per row, the snapped y of its plates, in grid
                             units.  A corrupted layout's lattice may be
                             unsorted or repeat a coordinate. *)
  drivers : int array;   (** ids of the vias at the driver row (y = 0) *)
  layers : layer array;  (** M1, M2, M3: wires and vias only *)
}

(** [of_layout l] flattens [l] into shapes with ids [0 .. n-1]: per cell
    in row-major order its pad (unless a dummy) and top pad, then the
    bottom-plate wires, the top-plate wires and the vias, each in layout
    order.  [Error] lists an [lvs/off-grid] diagnostic for each of the
    first 8 shapes with a coordinate off the grid, an [lvs/unknown-net]
    diagnostic for each of the first 8 shapes naming no net of the layout
    (a capacitor id outside its nets, or a via on the top plate), and an
    [lvs/diagonal] diagnostic for each of the first 8 on-grid wires
    extended in both axes, each family with one more counting the rest.
    Plates are checked like every other shape; one with a known net on
    the grid is written without a box. *)
val of_layout : Ccroute.Layout.t -> (t, Diag.t list) result

(** Number of shapes. *)
val count : t -> int

(** [layer t name] is the shapes drawn on [name]. *)
val layer : t -> Tech.Layer.name -> layer

val label_name : int -> string
val kind_name : kind -> string

(** [cell_name t id] renders cell [id] as ["(row,col)"]. *)
val cell_name : t -> int -> string
