(** Capacitor-pair covariance engine (Eq. 6).

    For capacitors [C_p] (with [p] unit cells) and [C_q]:
    [sigma_p^2 = sigma_u^2 (p + 2 S_p)] and
    [Cov(p, q) = sigma_u^2 S_pq].  A built value caches the full
    covariance matrix over the capacitors of one placement, which the
    nonlinearity model (Eq. 13–14) queries for every input code. *)

type t

(** [build tech positions] precomputes the covariance matrix for
    capacitors whose unit-cell centre positions are given per capacitor
    index.  When every position lies on [tech]'s half-pitch lattice
    (always true for {!Ccgrid.Placement.positions_by_cap}), the cell-pair
    sums come from the lattice kernel {!Lattice} ({!Lattice.of_positions}
    snaps them): the largest capacitor (or the lattice points no cell
    covers, when they are more) is derived from the others, the smallest
    capacitors are summed directly among themselves, and the rest go
    through 2-D FFT convolutions at [O(G log G)] per pair of capacitors
    on a transform grid of [G] points.  The result equals the pair sum
    up to float rounding but not bitwise.  Otherwise every pair of cells
    is enumerated: [O(G^2)] for [G] unit cells. *)
val build : Tech.Process.t -> Geom.Point.t array array -> t

(** [of_points tech points] is [build tech] of the cells at the lattice
    points [points] ({!Lattice.point}; capacitor [k]'s in
    [points.(k)]), bit for bit, without a float position per cell: the
    lattice is read from the integers ({!Lattice.of_points}, which takes
    [points] over), and only when it declines are the positions
    ({!Lattice.position}) pair-summed. *)
val of_points : Tech.Process.t -> int array array -> t

(** Number of capacitors. *)
val size : t -> int

(** [transform_points t] is the build's work count:
    {!Lattice.transform_points} of the lattice it used (2-D transforms
    run times transform-grid points; [0] when it transformed no
    capacitor), or [0] when it enumerated cell pairs. *)
val transform_points : t -> int

(** [direct_lookups t] is the build's direct work:
    {!Lattice.direct_lookups} of the lattice it used (table lookups of
    the direct sums), or [0] when it enumerated cell pairs. *)
val direct_lookups : t -> int

(** [variance t k] is [sigma_k^2] in fF^2.  [Cov(k, k) = variance t k]. *)
val variance : t -> int -> float

(** [covariance t j k] in fF^2; symmetric. *)
val covariance : t -> int -> int -> float

(** [sigma_of_subset t ks] is the standard deviation (fF) of the sum of the
    capacitors with indices [ks]: [sqrt(sum_j sum_k Cov(j,k))] (Eq. 13–14).
    Indices may not repeat. *)
val sigma_of_subset : t -> int list -> float

(** [sigma_weighted t ws] is the standard deviation (fF) of the weighted
    sum [sum w_k dC_k]: [sqrt(sum_j sum_k w_j w_k Cov(j,k))].  Used for the
    code-to-code differential in the DNL model, where the weights are
    [D_k(i) - D_k(i-1)] in [-1, 0, 1]. *)
val sigma_weighted : t -> (int * float) list -> float
