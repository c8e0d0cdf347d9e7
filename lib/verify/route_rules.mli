(** Routing rules: the post-route invariants of a routed layout
    (everything inside the outline, trunks inside their channels, distinct
    tracks not colliding, the stubs of different nets in one channel row
    apart, every capacitor's net present and covering its
    cells, bundle widths matching the parallel-wire plan, reserved layer
    directions), plus layout-level extensions (positive extent, routed
    top plate, valid parallel-wire plan, one lattice centre per placement
    column and row). *)

(** ["route/wire-in-outline"] *)
val r_wire_in_outline : Diag.rule

(** ["route/via-in-outline"] *)
val r_via_in_outline : Diag.rule

(** ["route/trunk-in-channel"] *)
val r_trunk_in_channel : Diag.rule

(** ["route/track-separation"] *)
val r_track_separation : Diag.rule

(** ["route/stub-separation"] *)
val r_stub_separation : Diag.rule

(** ["route/net-routed"] *)
val r_net_routed : Diag.rule

(** ["route/net-coverage"] *)
val r_net_coverage : Diag.rule

(** ["route/parallel-consistency"] *)
val r_parallel_consistency : Diag.rule

(** ["route/reserved-direction"] *)
val r_reserved_direction : Diag.rule

(** ["route/extent"] *)
val r_extent : Diag.rule

(** ["route/top-plate"] *)
val r_top_plate : Diag.rule

(** ["route/parallel-positive"] *)
val r_parallel_positive : Diag.rule

(** ["route/lattice"] *)
val r_lattice : Diag.rule

(** Every rule this module owns. *)
val rules : Diag.rule list

(** [check layout] runs every routing rule.  The post-route invariants
    come first, sorted by rule id then detail (inside a [route.check]
    span); the extensions follow in emission order. *)
val check : Ccroute.Layout.t -> Diag.t list

(** [check_lattice layout] is the [route/lattice] part of {!check}
    alone: LVS runs it before flattening, which reads the lattice by
    placement column and row. *)
val check_lattice : Ccroute.Layout.t -> Diag.t list
