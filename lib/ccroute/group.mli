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
    capacitor, one BFS per component over a grid-indexed label array and
    queue that also takes the group's bounds, one backward pass over each
    BFS's queue for its tree edges, and one row-major pass that lists each
    group's cells.  Per cell it allocates the shared {!Cell.t}, its tree
    edge and two list cells. *)
val of_placement : ?mode:mode -> Placement.t -> t list

(** [of_cap groups k] filters the groups of capacitor [k], preserving
    order.  O(|groups|) per call; the router buckets groups by capacitor
    once instead. *)
val of_cap : t list -> int -> t list

(** [size g] is the number of cells. *)
val size : t -> int

(** [col_span_overlap a b] per Algorithm 1 line 14: true when the column
    spans intersect, i.e. the groups can share a vertical channel. *)
val col_span_overlap : t -> t -> bool

(** [closest_cells a b] is the pair [(u_a, u_b)] minimising the Manhattan
    cell distance; ties prefer the pair closest to the bottom of the array,
    then row-major order (Algorithm 1 lines 15–16).  Cost: for each cell
    of [a], a binary search of [b]'s row-major cells in each row of [b]
    within the best distance found so far — O(|a|·(d + 1)·log |b|) for a
    best distance [d] — plus one array of [b]'s cells. *)
val closest_cells : t -> t -> Cell.t * Cell.t

(** [closest_cells_in a bs] is [closest_cells a b] for [bs] the cells of
    [b] as a row-major array, so a caller pairing [b] with several groups
    builds the array once. *)
val closest_cells_in : t -> Cell.t array -> Cell.t * Cell.t

val pp : Format.formatter -> t -> unit
