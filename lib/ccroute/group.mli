(** Connected unit-capacitor group formation (Sec. IV-B2).

    The cells of each capacitor are the nodes of a graph with edges between
    4-adjacent cells; its connected components are the {e connected
    capacitor groups}.  Within a group, bottom plates are connected along a
    BFS tree with branch wires; a cell whose incident tree edges span both
    axes is a {e bend} and costs a via in reserved-direction routing. *)

open Ccgrid

type t = {
  cap : int;                          (** capacitor id *)
  id : int;                           (** unique over the placement *)
  cells : Cell.t list;                (** sorted row-major *)
  tree_edges : (Cell.t * Cell.t) list;(** BFS tree, (parent, child) *)
  col_lo : int;
  col_hi : int;
  row_lo : int;
  row_hi : int;
}

type mode =
  | Connected      (** one group per connected component (BFS) *)
  | Straight_runs  (** connected components split into maximal straight
                       row/column runs — each run can be strapped to a
                       trunk along its own channel, the structure visible
                       in the paper's Fig. 3(a) where one capacitor shows
                       several shades.  A component is split along the
                       orientation that yields fewer runs. *)

(** [of_placement ?mode p] builds the groups of every capacitor (dummies
    have no group).  [mode] defaults to [Connected] — the BFS connected
    components of Sec. IV-B2; [Straight_runs] is kept as an ablation.  Deterministic:
    BFS starts at the row-major-smallest cell and visits neighbours in a
    fixed order.  Group ids are dense from 0, ordered by (cap, seed).  A
    cell appears as one shared {!Cell.t} in its group's [cells] and
    [tree_edges].

    Cost: O(rows·cols) for [Connected] — a counting sort of the cells by
    capacitor, one BFS per component over a grid-indexed visited array and
    queue, and one row-major pass that lists each group's cells. *)
val of_placement : ?mode:mode -> Placement.t -> t list

(** [of_cap groups k] filters the groups of capacitor [k], preserving
    order. *)
val of_cap : t list -> int -> t list

(** [size g] is the number of cells. *)
val size : t -> int

(** [bend_cells g] are the cells whose incident tree edges include both a
    horizontal and a vertical edge — each costs one (logical) via. *)
val bend_cells : t -> Cell.t list

(** [col_span_overlap a b] per Algorithm 1 line 14: true when the column
    spans intersect, i.e. the groups can share a vertical channel. *)
val col_span_overlap : t -> t -> bool

(** [closest_cells a b] is the pair [(u_a, u_b)] minimising the Manhattan
    cell distance; ties prefer the pair closest to the bottom of the array,
    then row-major order (Algorithm 1 lines 15–16).  Cost: O(|a|·|b|)
    integer comparisons, no allocation per pair. *)
val closest_cells : t -> t -> Cell.t * Cell.t

val pp : Format.formatter -> t -> unit
