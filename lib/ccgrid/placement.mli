(** Common-centroid placement: the assignment of every grid cell to a
    capacitor (or to a dummy).

    Capacitor ids are [0 .. bits] (see {!Weights}); [dummy] marks filler
    cells.  [unit_multiplier] is 1 normally and 2 for the odd-N chessboard
    of [7], which doubles every capacitor's unit-cell count (the unit cell
    value stays [C_u]; only the ratios matter to the DAC). *)

(** Capacitor id of dummy cells. *)
val dummy : int

type t = {
  bits : int;                  (** DAC resolution N *)
  rows : int;
  cols : int;
  unit_multiplier : int;       (** 1, or 2 when unit counts were doubled *)
  counts : int array;          (** unit cells per capacitor, length bits+1 *)
  assign : int array array;    (** [assign.(row).(col)] = cap id or [dummy] *)
  style_name : string;         (** producer's name, for reports *)
}

(** [create ~bits ~rows ~cols ~unit_multiplier ~counts ~assign ~style_name]
    validates and builds a placement.  Raises [Invalid_argument] when the
    shape is inconsistent (wrong matrix dims, count mismatch, bad ids). *)
val create :
  bits:int -> rows:int -> cols:int -> unit_multiplier:int ->
  counts:int array -> assign:int array array -> style_name:string -> t

(** Number of capacitors, [bits + 1]. *)
val num_caps : t -> int

(** [cap_at t cell] is the capacitor id at [cell], or [None] for a dummy.
    Raises [Invalid_argument] out of bounds. *)
val cap_at : t -> Cell.t -> int option

(** [cells_of t k] lists the cells of capacitor [k] in row-major order. *)
val cells_of : t -> int -> Cell.t list

(** [dummy_cells t] lists the dummy cells. *)
val dummy_cells : t -> Cell.t list

(** [position tech t cell] is the centre of [cell] in micrometres with the
    origin at the array centre.  Channels are not included: variation
    modelling uses the un-expanded grid, matching Sec. II-C. *)
val position : Tech.Process.t -> t -> Cell.t -> Geom.Point.t

(** [axes tech t] is [(xs, ys)]: [xs.(col)] and [ys.(row)] are the x and y
    that {!position} gives every cell of that column and row.  For grid
    passes that need positions without building a point per cell. *)
val axes : Tech.Process.t -> t -> float array * float array

(** [positions_by_cap tech t] is the per-capacitor array of unit-cell
    centre positions, indexed by capacitor id, each in row-major order —
    the input to {!Capmodel.Covariance.build}-style analyses.  Cost: one
    pass over the grid. *)
val positions_by_cap : Tech.Process.t -> t -> Geom.Point.t array array

(** [position_sums tech t] is, per capacitor id, its cell count and the
    sum of its cell positions, added in row-major order starting from the
    origin — the order in which {!Geom.Point.centroid} adds the positions
    of {!cells_of}, so [Point.scale (1. /. float n) sum] is that centroid
    bit for bit.  One row-major pass over the grid. *)
val position_sums : Tech.Process.t -> t -> (int * Geom.Point.t) array

(** [centroid_error tech t k] is the distance (um) between capacitor [k]'s
    unit-cell centroid and the array centre.  Zero for an exactly
    common-centroid capacitor. *)
val centroid_error : Tech.Process.t -> t -> int -> float

(** [max_centroid_error tech t] over capacitors with at least 2 cells
    (the single-cell C_0/C_1 cannot be centred, Sec. IV-A). *)
val max_centroid_error : Tech.Process.t -> t -> float

(** [validate t] re-checks all invariants; [Error msg] names the first
    violation.  Useful for property tests over placement generators. *)
val validate : t -> (unit, string) result

val pp : Format.formatter -> t -> unit
