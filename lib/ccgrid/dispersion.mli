(** Dispersion metrics (Sec. IV-A2).

    Dispersion measures how widely a capacitor's unit cells are spread
    across the array; higher dispersion averages out spatially-correlated
    random variation (lower INL/DNL) at the cost of routing parasitics.
    Chessboard maximises it, spiral trades some of it for via count. *)

(** [spread tech placement k] is the RMS distance (um) of capacitor [k]'s
    cells from their own centroid, normalised by the RMS distance of {e all}
    array cells from the array centre.  1.0 means the capacitor is spread
    like the whole array; small values mean clustering.  Cost: that of
    {!overall}, which computes every capacitor's spread. *)
val spread : Tech.Process.t -> Placement.t -> int -> float

(** [overall tech placement] is the unit-cell-count-weighted mean of
    {!spread} over all capacitors.  Cost: three row-major passes over the
    grid, whatever the number of capacitors — one for every capacitor's
    centroid ({!Placement.position_sums}), one for its squared distances
    from that centroid, and one for the whole-array RMS — with the sums
    added in the same order as per-capacitor cell lists would add them. *)
val overall : Tech.Process.t -> Placement.t -> float
