(** Mutable grid builder shared by all placement algorithms.

    Every constructive placement in Sec. IV-A assigns unit cells in
    mirrored pairs about the common-centroid point; the builder enforces
    that discipline.  Because all assignments are pair-wise (plus an
    optional reserved self-mirror centre cell), the set of free cells stays
    mirror-symmetric throughout construction — the invariant the
    placement algorithms rely on. *)

open Ccgrid

type t

(** [make ~bits ~rows ~cols ~unit_multiplier ~counts] starts an empty grid.
    [counts] is the per-capacitor unit-cell budget (length [bits+1]). *)
val make :
  bits:int -> rows:int -> cols:int -> unit_multiplier:int ->
  counts:int array -> t

val rows : t -> int
val cols : t -> int
val is_free : t -> Cell.t -> bool

(** [remaining t k] unit cells still to place for capacitor [k]. *)
val remaining : t -> int -> int

(** [mirror t c] is the mirror cell in this grid. *)
val mirror : t -> Cell.t -> Cell.t

(** [assign_pair t c k] places capacitor [k] on [c] and on [mirror c].
    Raises [Invalid_argument] if either cell is occupied, if [c] is its own
    mirror, or if fewer than 2 cells remain for [k]. *)
val assign_pair : t -> Cell.t -> int -> unit

(** [assign_split_pair t c ~at ~at_mirror] places capacitor [at] on [c] and
    capacitor [at_mirror] on [mirror c] — the standard trick for the two
    single-cell capacitors C_0 and C_1, which are placed diagonally
    opposite each other near the centre (Sec. IV-A). *)
val assign_split_pair : t -> Cell.t -> at:int -> at_mirror:int -> unit

(** [assign_dummy_pair t c] places dummies on [c] and [mirror c] — used by
    block-chessboard corridors, where dummies participate in the block
    interleave (Sec. IV-A: "add dummies in block chessboard fashion"). *)
val assign_dummy_pair : t -> Cell.t -> unit

(** [reserve_center_dummy t] marks the central self-mirror cell (only
    present when both dimensions are odd) as a dummy.  No-op when there is
    no such cell or it is already taken. *)
val reserve_center_dummy : t -> unit

(** [assign_center_single t k] places one cell of capacitor [k] on the
    central self-mirror cell — the only position where a lone unit cell
    keeps the common centroid exactly.  Raises [Invalid_argument] when the
    grid has no centre cell or it is taken.  Used by arbitrary-ratio
    placements with an odd total. *)
val assign_center_single : t -> int -> unit

(** A scan position in a cell order.  Builders only ever take cells, so
    one cursor serves every {!first_free_in} over the same order and the
    whole placement scans that order once. *)
type cursor

(** [cursor order] starts a scan at the head of [order]. *)
val cursor : Cell.t list -> cursor

(** [first_free_in t cur] is the first free cell of the cursor's order,
    skipping (for good) the cells before it, which are all taken. *)
val first_free_in : t -> cursor -> Cell.t option

(** [finish t ~style_name] fills every remaining free cell with dummies and
    returns the validated placement.  Raises [Invalid_argument] when some
    capacitor budget was not exhausted. *)
val finish : t -> style_name:string -> Placement.t
