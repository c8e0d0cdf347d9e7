(** Routed layout: Step 3 of Algorithm 1 plus top-plate routing, realised
    in physical coordinates.

    Coordinate frame: origin at the bottom-left of the routed block;
    y = 0 is the driver row (the switch/driver cluster sits below the
    array, Sec. IV-B3), above it the bridge-wire region, then the cell
    array.  Vertical channels between columns widen by exactly the tracks
    they carry (including parallel-wire bundles, Sec. IV-B4).

    Wire plan per capacitor net:
    - {e branch} wires connect 4-adjacent cells along each group's BFS tree
      (M1, via-free; a bend inside a tree costs one logical via);
    - a {e stub} connects each group's attach cell to its trunk (one
      logical via at the junction);
    - {e trunk} wires run vertically in channel tracks (M3); the {e primary}
      trunk of each net continues down to the driver row;
    - a {e bridge} (M1) at the net's bridge track connects multiple trunks
      (one logical via per trunk junction);
    - the driver connects through one input via at y = 0.

    A logical via made of a [p]-wire junction counts [p^2] physical cuts
    and has resistance [R_via / p^2]. *)

open Ccgrid

type wire_kind =
  | Branch
  | Stub
  | Trunk
  | Bridge
  | Top

(** One wire, as {!Wires.get} reads it from a table and {!Wires.of_list}
    writes it into one. *)
type wire = {
  w_cap : int;            (** capacitor id; [-2] for top-plate wires *)
  w_kind : wire_kind;
  w_layer : Tech.Layer.name;
  w_ax : float;
  w_ay : float;
  w_bx : float;
  w_by : float;           (** axis-aligned endpoints, um *)
  w_p : int;              (** parallel wires in the bundle *)
}

(** A wire list as one flat table, in emission order: no record, boxed
    float or list cell per wire.  Wire [i] runs from
    ([xy.(4i)], [xy.(4i + 1)]) to ([xy.(4i + 2)], [xy.(4i + 3)]) um, and
    [attr.(4i)] .. [attr.(4i + 3)] hold its capacitor id, kind code,
    layer code and parallel count; {!cap}, {!kind}, {!layer} and {!p}
    decode them.  Readers index the arrays: a float returned through a
    call would be boxed. *)
module Wires : sig
  type t = private {
    xy : float array;
    attr : int array;
  }

  (** [length t] is the number of wires. *)
  val length : t -> int

  val cap : t -> int -> int
  val kind : t -> int -> wire_kind
  val layer : t -> int -> Tech.Layer.name
  val p : t -> int -> int

  (** [get t i] is wire [i] as a record. *)
  val get : t -> int -> wire

  (** [of_list ws] is the table of [ws], in list order. *)
  val of_list : wire list -> t

  (** [to_list t] lists the wires in table order: [of_list (to_list t)]
      equals [t]. *)
  val to_list : t -> wire list
end

type via = {
  v_cap : int;
  v_x : float;
  v_y : float;
  v_p : int;              (** bundle width: the junction has [v_p^2] cuts *)
}

type trunk = {
  tk_cap : int;
  tk_channel : int;
  tk_track : int;
  tk_x : float;
  tk_y_low : float;
  tk_y_high : float;
  tk_attaches : int array; (** the ids of the groups strapped to this
                               trunk, each at its plan attach cell: the
                               stub runs at that cell's row y from its
                               column x to [tk_x] *)
  tk_primary : bool;      (** reaches the driver row *)
}

type capnet = {
  cn_cap : int;
  cn_groups : int array;       (** the net's group ids, ascending *)
  cn_trunks : trunk list;
  cn_bridge_y : float option;  (** present when the net has >= 2 trunks *)
  cn_driver_x : float;
}

type t = {
  placement : Placement.t;
  tech : Tech.Process.t;
  groups : Group.t;
  plan : Plan.t;
  p_of_cap : int array;      (** parallel-wire count per capacitor *)
  col_x : float array;       (** column centre x, length cols *)
  row_y : float array;       (** row centre y, length rows *)
  channel_width : float array; (** length cols+1 *)
  bridge_height : float;
  width : float;
  height : float;
  nets : capnet array;       (** indexed by capacitor id *)
  wires : Wires.t;          (** every bottom-plate wire *)
  vias : via list;           (** every bottom-plate logical via *)
  top_wires : Wires.t;
  top_length : float;        (** total top-plate wirelength, um *)
}

(** [route tech ?p_of_cap placement] runs group formation, Algorithm 1 and
    wire creation.  [p_of_cap] maps capacitor id to its parallel-wire
    count (>= 1); default: 1 wire everywhere.  Raises [Invalid_argument]
    on [p_of_cap] returning < 1.  A capacitor with no cells gets a net
    with no trunks, which [route/net-routed] reports.

    Cost: {!Group.of_placement} and {!Plan.make}, then a counting sort
    of the plan's connections by (capacitor, channel), per net a walk
    over the channels plus its own groups and attaches, and one pass
    over the nets for the wire table and one, backwards, for the via
    list — O(rows·cols + caps·cols) besides Step 1. *)
val route : Tech.Process.t -> ?p_of_cap:(int -> int) -> Placement.t -> t

(** [msb_parallel ~bits ~p] is the policy used for the paper's tables:
    the top three MSB capacitors route with [p] parallel wires (once the
    MSB is parallelised the next bits become critical, Sec. V), the rest
    with one. *)
val msb_parallel : bits:int -> p:int -> int -> int

(** [cell_center t cell] in the routed (channel-expanded) frame. *)
val cell_center : t -> Cell.t -> Geom.Point.t

(** [wire_length w] in um. *)
val wire_length : wire -> float

(** [net t k] is the routed net of capacitor [k]. *)
val net : t -> int -> capnet
