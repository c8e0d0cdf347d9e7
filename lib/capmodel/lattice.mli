(** Exact lattice kernel for the Eq. 6 correlation sums.

    Unit-cell centres lie on the half-pitch lattice of the process, so
    the correlation of two cells depends only on their lattice
    displacement and every sum over cell pairs is a cross-correlation of
    indicator grids.  A 2-D FFT computes all of them at
    [O(N G log G)] cost for [N] capacitors over [G] lattice points, in
    place of the [O(G^2)] pair enumeration.  The result equals the pair
    sum up to float rounding; it is not bitwise equal. *)

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
    transforms {!correlation_sums} runs (one for the correlation, then a
    forward and an inverse per pair of capacitors) times the points of
    the transform grid. *)
val transform_points : t -> int

(** [correlation_sums tech t] is [s] with
    [s.(j).(k) = sum_{a in j} sum_{b in k} rho_ab], self pairs included
    ([rho_aa = 1], so [s.(k).(k) = p + 2 S_p] for a [p]-cell capacitor and
    [s.(j).(k) = S_jk] for [j <> k]).  The matrix is exactly symmetric. *)
val correlation_sums : Tech.Process.t -> t -> float array array
