(** Exact lattice kernel for the Eq. 6 correlation sums.

    Unit-cell centres lie on the half-pitch lattice of the process, so
    the correlation of two cells depends only on the magnitudes of their
    lattice displacement along the two axes: one quadrant table holds
    every correlation, and every sum over cell pairs is a
    cross-correlation of indicator grids.

    The sums run over parts: the capacitors, plus a remainder that
    completes them to the lattice rectangle's indicator (+1 on each
    point no cell covers, -1 for each repeated copy of a cell).  The
    kernel never transforms the largest part: its sums follow from the
    others' and from the rectangle's convolution with the table, which
    prefix sums give at every point in [O(1)] (for a binary-weighted
    array that part is C_N, half the cells; for a sparse input it is the
    remainder, which no capacitor needs).  Of the other parts, the
    smallest are summed directly among themselves, one table lookup per
    pair of their cells; the middle ones go through 2-D FFT
    convolutions, two parts per forward and inverse pair at
    [O(G log G)] on a transform grid of [G] points, and each such column
    also gives the direct parts' sums with that part.  A cost model with
    constants measured on this kernel picks the split per input (at 12
    bits, C_0..C_7 direct and C_8..C_11 in two pairs).  The result
    equals the pair sum up to float rounding; it is not bitwise
    equal. *)

(** The unit cells on the lattice, with the transform grid that holds
    every displacement between them and the kernel's split of the
    parts. *)
type t

(** [point ~y ~x] is the lattice point [y] half cell pitches above and
    [x] to the right of the array centre, packed in one [int] for
    {!of_points}: a cell in row [r] and column [c] of a [rows x cols]
    grid is at [y = 2r - (rows - 1)], [x = 2c - (cols - 1)]
    ({!Ccgrid.Cell.centered}).  Raises [Invalid_argument] when [|y|] or
    [|x|] reaches 2^20. *)
val point : y:int -> x:int -> int

(** [position tech p] is the centre of lattice point [p] in
    micrometres: half of [tech]'s cell pitch times each coordinate, as
    {!Ccgrid.Placement.position} places a cell. *)
val position : Tech.Process.t -> int -> Geom.Point.t

(** [of_points tech points] is the lattice of the unit cells at
    [points.(k)] for capacitor [k] ({!point}), in that order: the axes
    run from the lowest coordinate in steps of the largest common stride
    of the coordinates.  It is [None] when there are no cells or the
    transform grid would exceed 2^22 points (a 16-bit array needs 2^18),
    and otherwise takes [points] over: their arrays become the lattice's
    cells, rewritten in place. *)
val of_points : Tech.Process.t -> int array array -> t option

(** [of_positions tech positions] snaps per-capacitor cell centres onto
    [tech]'s half-pitch lattice and is {!of_points} of the result, or
    [None] when some position is not exactly a lattice point (as
    {!Ccgrid.Placement.position} always produces) or lies 2^20 half
    pitches or more from the origin. *)
val of_positions : Tech.Process.t -> Geom.Point.t array array -> t option

(** [transform_points t] is the kernel's transform work: the number of
    2-D transforms {!correlation_sums} runs times the points [G] of the
    transform grid.  For [m] transformed parts that is R's transform,
    counted once, and a forward and an inverse per pair of them,
    [(1 + 2 ceil (m / 2)) G], and [0] when [m = 0] (81,920 for a 12-bit
    spiral: C_8..C_11 on [128 x 128] points). *)
val transform_points : t -> int

(** [direct_lookups t] is the kernel's direct work: the table lookups
    of the direct sums, [s (s - 1) / 2] over the [s] cells of the
    directly summed parts, self pairs not looked up (8,128 for a 12-bit
    spiral: the 128 cells of C_0..C_7). *)
val direct_lookups : t -> int

(** [correlation_sums tech t] is [s] with
    [s.(j).(k) = sum_{a in j} sum_{b in k} rho_ab], self pairs included
    ([rho_aa = 1], so [s.(k).(k) = p + 2 S_p] for a [p]-cell capacitor and
    [s.(j).(k) = S_jk] for [j <> k]).  The matrix is exactly symmetric. *)
val correlation_sums : Tech.Process.t -> t -> float array array
