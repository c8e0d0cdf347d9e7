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
    {!Ccgrid.Placement.position} produces) or there are no positions. *)
val of_positions : Tech.Process.t -> Geom.Point.t array array -> t option

(** [cheaper_than_pairwise t] is the cost model's verdict that the
    transforms cost less than enumerating every cell pair.  False only
    for small arrays (about 7 bits and below), where both take well under
    a millisecond. *)
val cheaper_than_pairwise : t -> bool

(** [correlation_sums tech t] is [s] with
    [s.(j).(k) = sum_{a in j} sum_{b in k} rho_ab], self pairs included
    ([rho_aa = 1], so [s.(k).(k) = p + 2 S_p] for a [p]-cell capacitor and
    [s.(j).(k) = S_jk] for [j <> k]).  The matrix is exactly symmetric. *)
val correlation_sums : Tech.Process.t -> t -> float array array
