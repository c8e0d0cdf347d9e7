(** Connected unit-capacitor group formation (Sec. IV-B2).

    The cells of each capacitor are the nodes of a graph with edges between
    4-adjacent cells; its connected components are the {e connected
    capacitor groups}.  Within a group, bottom plates are connected along a
    BFS tree with branch wires; a cell whose incident tree edges span both
    axes is a {e bend} and costs a via in reserved-direction routing.

    A group holds its cells as row-major cell ids: cell [(row, col)] of a
    placement with [cols] columns is id [row * cols + col], so id order
    is row-major order.  Its cells and tree edges are int arrays, with
    no record, tuple or list cell per unit cell. *)

open Ccgrid

type t = {
  cap : int;                (** capacitor id *)
  id : int;                 (** unique over the placement *)
  cols : int;               (** placement columns: id [i] is cell
                                [(i / cols, i mod cols)] *)
  cells : int array;        (** cell ids, ascending (row-major) *)
  tree_edges : int array;   (** the BFS tree as (parent, child) id pairs
                                in visit order: edge [e] runs from
                                [tree_edges.(2e)] to [tree_edges.(2e + 1)] *)
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

(** A group of no cells and capacitor [-1].  It is a static value, so an
    array of groups can be filled from it before its groups are known
    without the runtime promoting a fresh block first. *)
val none : t

(** [of_placement ?mode p] builds the groups of every capacitor (dummies
    have no group).  [mode] defaults to [Connected] — the BFS connected
    components of Sec. IV-B2; [Straight_runs] is kept as an ablation.  Deterministic:
    BFS starts at the row-major-smallest cell and visits neighbours in a
    fixed order.  Group ids are dense from 0, ordered by (cap, seed).

    Cost: O(rows·cols) for [Connected] — a counting sort of the cells by
    capacitor, one BFS per component over a grid-indexed label array and
    queue that also takes the group's bounds, one backward pass over each
    BFS's queue for its tree edges, and one row-major pass that fills
    each group's cells.  Per group it allocates its record and its two
    arrays: three words per cell besides the array headers. *)
val of_placement : ?mode:mode -> Placement.t -> t list

(** [of_cap groups k] filters the groups of capacitor [k], preserving
    order.  O(|groups|) per call; the router buckets groups by capacitor
    once instead. *)
val of_cap : t list -> int -> t list

(** [size g] is the number of cells. *)
val size : t -> int

(** [edges g] is the number of tree edges. *)
val edges : t -> int

(** [cell g i] decodes cell id [i] of [g]'s placement. *)
val cell : t -> int -> Cell.t

(** [col_span_overlap a b] per Algorithm 1 line 14: true when the column
    spans intersect, i.e. the groups can share a vertical channel. *)
val col_span_overlap : t -> t -> bool

(** [closest_cells a b] is the pair of cell ids [(u_a, u_b)] minimising
    the Manhattan cell distance; ties prefer the pair closest to the
    bottom of the array, then row-major order (Algorithm 1 lines 15–16).
    Both groups must come from one placement.  Cost: for each cell of
    [a], a binary search of [b]'s cells in each row of [b] within the
    best distance found so far — O(|a|·(d + 1)·log |b|) for a best
    distance [d]. *)
val closest_cells : t -> t -> int * int

val pp : Format.formatter -> t -> unit
