(** LVS rules: the layout-vs-schematic invariants certified by the
    {!Lvs} extraction engine in [lib/lvs].

    This module only declares the rule identities; the checking logic
    lives in [Lvs.Check] (which depends on [Verify], not the other way
    round — the registry stays free of geometry). *)

(** ["lvs/short"] *)
val r_short : Rule.t

(** ["lvs/open"] *)
val r_open : Rule.t

(** ["lvs/floating-cell"] *)
val r_floating_cell : Rule.t

(** ["lvs/dangling"] — warning severity *)
val r_dangling : Rule.t

(** ["lvs/top-open"] *)
val r_top_open : Rule.t

(** ["lvs/netbuild-mismatch"] *)
val r_netbuild_mismatch : Rule.t

(** ["lvs/off-grid"] *)
val r_off_grid : Rule.t

(** ["lvs/unknown-net"] *)
val r_unknown_net : Rule.t

(** ["lvs/diagonal"] *)
val r_diagonal : Rule.t

(** Every rule this module owns. *)
val rules : Rule.t list
