(** Placement rules: the common-centroid invariants (Sec. III) a placement
    must satisfy before routing, extraction or any mismatch statistic
    computed from it means anything.

    When the grid is structurally broken (["place/well-formed"]) only that
    rule fires — the remaining checks assume a well-shaped grid. *)

(** ["place/well-formed"] *)
val r_well_formed : Diag.rule

(** ["place/grid-coverage"] *)
val r_grid_coverage : Diag.rule

(** ["place/cell-count"] *)
val r_cell_count : Diag.rule

(** ["place/binary-weights"] *)
val r_binary_weights : Diag.rule

(** ["place/mirror-symmetry"] *)
val r_mirror : Diag.rule

(** ["place/centroid"] *)
val r_centroid : Diag.rule

(** ["place/lsb-pair-centroid"] *)
val r_lsb_pair : Diag.rule

(** ["place/dispersion"] *)
val r_dispersion : Diag.rule

(** Every rule this module owns. *)
val rules : Diag.rule list

(** [check ?centroid_tol ?dispersion_bound tech placement].

    [centroid_tol] (um, default [1e-6]) bounds the distance between each
    multi-cell capacitor's centroid and the array centre — constructive
    placements are exact to float round-off ([< 1e-15] um in practice).
    [dispersion_bound] (default [1.1]) bounds the overall weighted RMS
    dispersion relative to the array RMS; every shipped style stays below
    [1.0]. *)
val check :
  ?centroid_tol:float ->
  ?dispersion_bound:float ->
  Tech.Process.t ->
  Ccgrid.Placement.t ->
  Diag.t list
