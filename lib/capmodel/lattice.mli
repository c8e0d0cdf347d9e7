(** Exact lattice kernel for the Eq. 6 correlation sums.

    Unit-cell centres lie on the half-pitch lattice of the process, so
    the correlation of two cells depends only on the magnitudes of their
    lattice displacement along the two axes: one quadrant table holds
    every correlation, and every sum over cell pairs is a
    cross-correlation of indicator grids.

    The kernel chooses per capacitor, from its cell count alone.  On a
    transform grid of [G] points, a capacitor of at most [log2 G] cells
    gets its column by summing the table directly over every pair of its
    cells with the array's cells: [n_k] lookups per cell, so
    [sum_k n_k] times the array's cell count over these small capacitors
    (at 12 bits C_0..C_4, [16 * 4096]).  The others go through 2-D FFT
    convolutions, two capacitors per forward and inverse pair, at
    [O(G log G)] per pair, in place of the [O(G^2)] pair enumeration.
    The result equals the pair sum up to float rounding; it is not
    bitwise equal. *)

(** Unit-cell positions snapped onto the lattice, with the transform
    grid that holds every displacement between them. *)
type t

(** [of_positions tech positions] is the lattice of the per-capacitor
    cell centres [positions], or [None] when some position is not
    exactly a point of [tech]'s half-pitch lattice (as
    {!Ccgrid.Placement.position} produces), there are no positions, or
    the transform grid would exceed 2^22 points (a 16-bit array needs
    2^18). *)
val of_positions : Tech.Process.t -> Geom.Point.t array array -> t option

(** [transform_points t] is the kernel's work count: the number of 2-D
    transforms {!correlation_sums} runs times the points [G] of the
    transform grid.  Only the capacitors of more than [log2 G] cells are
    transformed: one transform of the correlation, then a forward and an
    inverse per pair of them, so [(1 + 2 ceil (m / 2)) G] for [m] such
    capacitors, and [0] when [m = 0] (147,456 for a 12-bit spiral, 8 of
    13 capacitors on [128 x 128] points).  The direct sums are not
    counted. *)
val transform_points : t -> int

(** [correlation_sums tech t] is [s] with
    [s.(j).(k) = sum_{a in j} sum_{b in k} rho_ab], self pairs included
    ([rho_aa = 1], so [s.(k).(k) = p + 2 S_p] for a [p]-cell capacitor and
    [s.(j).(k) = S_jk] for [j <> k]).  The matrix is exactly symmetric. *)
val correlation_sums : Tech.Process.t -> t -> float array array
