(** Build the RC tree of one capacitor's bottom-plate charging network
    from a routed layout (Sec. III-B).

    The tree is rooted at the driver: input via, primary trunk, bridge
    segments to secondary trunks, attach vias and stubs, then the branch
    wires of each connected group with one unit capacitor [C_u] of load at
    every cell.  Parallel-wire bundles are collapsed into equivalent
    edges (R/p wires, R/p^2 vias, C*p).

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

type part = {
  pt_kind : part_kind;
  pt_layer : string;   (** ["M1"], ["M3"], ["via"], ["plate"] *)
  pt_r_ohm : float;
}

(** What a tree edge is (a trunk segment, a strap, a via, a bridge
    segment or a plate abutment).  {!attribution} renders it as the
    element label, e.g. ["trunk M3 ch2 y1.20->3.60"]; building a net
    formats no strings. *)
type edge

(** Provenance of one tree edge, in {!Rcnet.Rctree.edges} insertion
    order.  The parts' resistances sum exactly to the edge resistance. *)
type edge_info = {
  ei_edge : edge;
  ei_parts : part list;
}

type t = {
  tree : Rcnet.Rctree.t;
  root : Rcnet.Rctree.node;          (** driver *)
  cell_nodes : (Cell.t * Rcnet.Rctree.node) list;
  edge_infos : edge_info array;      (** indexed like {!Rcnet.Rctree.edges} *)
}

(** [build layout ~cap].  Raises [Invalid_argument] for a capacitor with
    no routed net. *)
val build : Ccroute.Layout.t -> cap:int -> t

(** [worst_elmore_fs net] is the maximum Elmore delay from the driver to
    any unit-capacitor cell, femtoseconds. *)
val worst_elmore_fs : t -> float

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
    unit-capacitor cell with the largest Elmore delay, that delay, and
    the per-element decomposition whose [nb_delay_fs] sum to it exactly
    (up to float association).  Contributions are in root-first path
    order; an edge with several parts (e.g. an attach via plus its M1
    stub) yields one contribution per part, splitting the edge delay
    proportionally to part resistance. *)
val attribution : t -> Cell.t * float * contribution list
