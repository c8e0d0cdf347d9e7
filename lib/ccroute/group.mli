(** Connected unit-capacitor group formation (Sec. IV-B2).

    The cells of each capacitor are the nodes of a graph with edges between
    4-adjacent cells; its connected components are the {e connected
    capacitor groups}.  Within a group, bottom plates are connected along a
    BFS tree with branch wires; a cell whose incident tree edges span both
    axes is a {e bend} and costs a via in reserved-direction routing.

    Cells are row-major cell ids: cell [(row, col)] of a placement with
    [cols] columns is id [row * cols + col], so id order is row-major
    order.  The groups of a placement are one table of int arrays indexed
    by group id, with no record, tuple or list cell per group or per unit
    cell.  A group of [n] cells has [n - 1] tree edges, so one offset
    array locates both its cells and its edges. *)

open Ccgrid

type t = {
  cols : int;               (** placement columns: id [i] is cell
                                [(i / cols, i mod cols)] *)
  cap : int array;          (** per group: its capacitor *)
  first : int array;        (** length [count + 1]: group [g]'s cells are
                                [cells.(first.(g)) .. cells.(first.(g + 1) - 1)] *)
  cells : int array;        (** every group's cell ids, each group's
                                ascending (row-major) *)
  tree_edges : int array;   (** every group's BFS tree as (parent, child)
                                id pairs in visit order: edge [e] of group
                                [g] runs from [tree_edges.(2p)] to
                                [tree_edges.(2p + 1)], [p = edge_first t g + e] *)
  col_lo : int array;       (** per group: its leftmost column *)
  col_hi : int array;       (** per group: its rightmost column *)
  cap_first : int array;    (** length [caps + 1]: capacitor [k]'s groups
                                are [cap_first.(k) .. cap_first.(k + 1) - 1] *)
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
    fixed order.  Group ids are dense from 0, ordered by (cap, seed), so a
    capacitor's groups are contiguous.

    Cost: O(rows·cols) for [Connected] — a counting sort of the cells by
    capacitor, one BFS per component over a grid-indexed label array and
    one queue shared by all of them, one pass over that queue for the
    groups' offsets, bounds and tree edges, and one row-major pass that
    fills the cells.  It allocates the table's arrays and three
    cell-sized scratch arrays, nothing per group. *)
val of_placement : ?mode:mode -> Placement.t -> t

(** [count t] is the number of groups. *)
val count : t -> int

(** [size t g] is the number of cells of group [g]. *)
val size : t -> int -> int

(** [edges t g] is the number of tree edges of group [g]: [size t g - 1]. *)
val edges : t -> int -> int

(** [edge_first t g] is the pair index of group [g]'s first tree edge. *)
val edge_first : t -> int -> int

(** [row_lo t g] and [row_hi t g] are group [g]'s lowest and highest
    rows: those of its first and last cell. *)
val row_lo : t -> int -> int
val row_hi : t -> int -> int

(** [cell t i] decodes cell id [i] of [t]'s placement. *)
val cell : t -> int -> Cell.t

(** [col_span_overlap t a b] per Algorithm 1 line 14: true when the
    column spans of groups [a] and [b] intersect, i.e. the groups can
    share a vertical channel. *)
val col_span_overlap : t -> int -> int -> bool

(** [closest_cells t a b out] writes to [out.(0)] and [out.(1)] the pair
    of cell ids [(u_a, u_b)] of groups [a] and [b] minimising the
    Manhattan cell distance; ties prefer the pair closest to the bottom of
    the array, then row-major order (Algorithm 1 lines 15–16).  It
    allocates nothing.  Cost: for each cell of [a], a binary search of
    [b]'s cells in each row of [b] within the best distance found so far
    — O(|a|·(d + 1)·log |b|) for a best distance [d]. *)
val closest_cells : t -> int -> int -> int array -> unit

(** [pp t] prints group [g] of [t]. *)
val pp : t -> Format.formatter -> int -> unit
