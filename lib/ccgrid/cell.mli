(** Grid cells of the common-centroid matrix.

    A cell is addressed by [(row, col)] with row 0 at the {e bottom} of the
    array (nearest the switch/driver cluster, Sec. IV-B3) and col 0 at the
    left.  The {e doubled centred} coordinate system [(u, v)] maps cell
    [(row, col)] of an [rows x cols] array to
    [u = 2 row - (rows - 1)], [v = 2 col - (cols - 1)], so the array centre
    is the origin and the common-centroid mirror of [(u, v)] is
    [(-u, -v)] for every array size. *)

type t = {
  row : int;
  col : int;
}

val make : row:int -> col:int -> t
val equal : t -> t -> bool
val compare : t -> t -> int

(** [mirror ~rows ~cols c] is the diagonally symmetric cell
    [(rows-1-row, cols-1-col)] (Sec. IV-A: reflection through the CC point). *)
val mirror : rows:int -> cols:int -> t -> t

(** [centered ~rows ~cols c] is [(u, v)] in doubled centred coordinates. *)
val centered : rows:int -> cols:int -> t -> int * int

(** [ring ~rows ~cols c] is the Chebyshev ring index around the centre in
    doubled coordinates: [max |u| |v|]. *)
val ring : rows:int -> cols:int -> t -> int

(** [adjacent a b] is true when the cells share an edge (4-neighbourhood). *)
val adjacent : t -> t -> bool

(** [neighbors ~rows ~cols c] lists the in-bounds 4-neighbours. *)
val neighbors : rows:int -> cols:int -> t -> t list

(** [in_bounds ~rows ~cols c]. *)
val in_bounds : rows:int -> cols:int -> t -> bool

(** [spiral_order ~rows ~cols] lists every cell of the array
    centre-outwards: by ring, then by angle walking counter-clockwise from
    the positive-u (upward) direction.  Deterministic; used by the spiral
    placement (Sec. IV-A), by block-chessboard corridor construction and
    by the clustered arbitrary-ratio placement.
    Cost: each ring is walked side by side in steps of 2, so the order is
    generated in one pass, with no [atan2] and no sort: O(n) for
    [n = rows·cols].  It is the order of a stable sort on the key
    (ring, angle), the angle being [atan2 v u] shifted into 0..2π. *)
val spiral_order : rows:int -> cols:int -> t list

val pp : Format.formatter -> t -> unit
