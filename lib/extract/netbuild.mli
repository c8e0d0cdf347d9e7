(** Build the RC tree of one capacitor's bottom-plate charging network
    from a routed layout (Sec. III-B), and solve its Elmore delays.

    The tree is rooted at the driver: input via, primary trunk, bridge
    segments to secondary trunks, attach vias and stubs, then the branch
    wires of each connected group with one unit capacitor [C_u] of load at
    every cell.  Parallel-wire bundles are collapsed into equivalent
    edges (R/p wires, R/p^2 vias, C*p).

    A net is enumerated on a {!scratch} made for its layout, whose arrays
    are sized for the layout's largest net: the first pass numbers the
    nodes, the second walks the candidate edges stage by stage through a
    union-find that keeps a spanning tree.  Cell nodes are looked up in a
    grid-indexed array and trunk nodes by their index in the trunk's
    sorted event heights.  That enumeration is the net's {!topology};
    {!solve} and {!build} run the same one and write the node
    capacitances and edge resistances straight into an
    {!Rcnet.Rctree.t}'s arrays, with no call per edge.  {!solve} then
    orients the tree and sums its delays on the scratch too, so solving
    every net of a layout allocates nothing in proportion to a net;
    {!build} returns a fresh tree with each edge's provenance.

    Every accepted tree edge carries {e provenance}: the physical parts
    (via stacks, wire segments, plate abutments) whose resistances sum to
    the edge resistance.  {!attribution} combines that provenance with
    {!Rcnet.Elmore.breakdown} into the per-element worst-bit delay
    breakdown surfaced by [ccgen explain]. *)

open Ccgrid

(** What a resistive part of an edge physically is. *)
type part_kind =
  | Via    (** a via stack (p^2 parallel cuts for a p-wide bundle) *)
  | Wire   (** routed metal on a named layer *)
  | Plate  (** abutting-finger (device-layer) conduction inside a group *)

(** The physical parts of every tree edge, read only by {!attribution}. *)
type provenance

type t = {
  tree : Rcnet.Rctree.t;
  root : Rcnet.Rctree.node;                 (** driver *)
  cells : int array;                        (** modelled unit cells, as
                                                row-major cell ids *)
  cell_nodes : Rcnet.Rctree.node array;     (** [cell_nodes.(i)] models
                                                [cells.(i)]; in node order *)
  provenance : provenance;
}

(** [build layout ~cap].  Raises {!Verify.Engine.Rejected} ([lvs/open])
    for a capacitor with no routed net, and [Invalid_argument] for a
    capacitor id out of range or a parallel-wire count below 1.  A net
    whose {!topology} falls into several pieces builds into a forest,
    which {!Rcnet.Rctree.orient} (and so every delay) rejects.  Partially
    applied to a layout it builds every net on one {!scratch}, so use it
    in one domain at a time. *)
val build : Ccroute.Layout.t -> cap:int -> t

(** An RC model's shape without its values. *)
type topology = {
  modelled : int array;     (** the unit cells the model has, as
                                {!t.cells} lists them *)
  pieces : int;             (** connected pieces the spanning-tree walk
                                leaves: 1 when the model is a tree *)
}

(** [topology layout ~cap] is the node numbering and union-find walk of
    {!build} without a resistance, a capacitance or an {!Rcnet.Rctree}:
    the cells are exactly [(build layout ~cap).cells], and [pieces > 1]
    exactly when orienting that tree raises.  It raises what {!build}
    raises, except on a parallel-wire count, which it never reads.
    Partially applied to a layout it enumerates every net on one scratch,
    without the edge arrays a solve needs, so use it in one domain at a
    time. *)
val topology : Ccroute.Layout.t -> cap:int -> topology

(** [worst_elmore_fs net] is the maximum Elmore delay from the driver to
    any unit-capacitor cell, femtoseconds. *)
val worst_elmore_fs : t -> float

(** The arrays one net at a time of one layout is enumerated and solved
    on, sized for its largest net.  The caller owns it; use it in one
    domain at a time. *)
type scratch

val scratch : Ccroute.Layout.t -> scratch

(** [solve s ~cap] is [worst_elmore_fs (build layout ~cap)] for the
    scratch's layout, bit for bit, with the tree written, oriented and
    summed in [s]'s arrays.  It raises what {!build} raises, and
    [Invalid_argument] where orienting the built tree would (a forest). *)
val solve : scratch -> cap:int -> float

(** [delays s] is a fresh copy of the Elmore delay at every node of the
    net [s] last solved, indexed by node as {!build} numbers them: bit
    for bit [Rcnet.Elmore.delays] of the built tree.  Empty before the
    first solve and after one that raised. *)
val delays : scratch -> float array

val part_kind_name : part_kind -> string

(** One physical element's share of the worst-cell Elmore delay. *)
type contribution = {
  nb_label : string;
  nb_kind : part_kind;
  nb_layer : string;
  nb_r_ohm : float;
  nb_c_down_ff : float;     (** capacitance charged through the element *)
  nb_delay_fs : float;      (** [r * c_down] *)
}

(** [attribution net] is [(worst_cell, delay_fs, contributions)]: the
    unit-capacitor cell with the largest Elmore delay (the first in
    [cells] order on a tie), that delay, and the per-element
    decomposition whose [nb_delay_fs] sum to it exactly (up to float
    association).  Contributions are in root-first path order; an edge
    with several parts (e.g. an attach via plus its M1 stub) yields one
    contribution per part, splitting the edge delay proportionally to
    part resistance. *)
val attribution : t -> Cell.t * float * contribution list
