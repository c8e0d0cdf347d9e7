(** Routing rules: the post-route invariants of a routed layout
    (everything inside the outline, trunks inside their channels, distinct
    tracks not colliding, every capacitor's net present and covering its
    cells, bundle widths matching the parallel-wire plan, reserved layer
    directions), plus layout-level extensions (positive extent, routed
    top plate, valid parallel-wire plan, one lattice centre per placement
    column and row). *)

(** ["route/wire-in-outline"] *)
val r_wire_in_outline : Rule.t

(** ["route/via-in-outline"] *)
val r_via_in_outline : Rule.t

(** ["route/trunk-in-channel"] *)
val r_trunk_in_channel : Rule.t

(** ["route/track-separation"] *)
val r_track_separation : Rule.t

(** ["route/net-routed"] *)
val r_net_routed : Rule.t

(** ["route/net-coverage"] *)
val r_net_coverage : Rule.t

(** ["route/parallel-consistency"] *)
val r_parallel_consistency : Rule.t

(** ["route/reserved-direction"] *)
val r_reserved_direction : Rule.t

(** ["route/extent"] *)
val r_extent : Rule.t

(** ["route/top-plate"] *)
val r_top_plate : Rule.t

(** ["route/parallel-positive"] *)
val r_parallel_positive : Rule.t

(** ["route/lattice"] *)
val r_lattice : Rule.t

(** Every rule this module owns. *)
val rules : Rule.t list

(** [check layout] runs every routing rule.  The post-route invariants
    come first, sorted by rule id then detail (inside a [route.check]
    span); the extensions follow in emission order. *)
val check : Ccroute.Layout.t -> Diagnostic.t list

(** [check_lattice layout] is the [route/lattice] part of {!check}
    alone: LVS runs it before flattening, which reads the lattice by
    placement column and row. *)
val check_lattice : Ccroute.Layout.t -> Diagnostic.t list
