(** LVS rules: the layout-vs-schematic invariants certified by the
    {!Lvs} extraction engine in [lib/lvs].

    This module only declares the rule identities; the checking logic
    lives in [Lvs.Check] (which depends on [Verify], not the other way
    round — the registry stays free of geometry). *)

(** ["lvs/short"] *)
val r_short : Diag.rule

(** ["lvs/open"] *)
val r_open : Diag.rule

(** ["lvs/floating-cell"] *)
val r_floating_cell : Diag.rule

(** ["lvs/dangling"] — warning severity *)
val r_dangling : Diag.rule

(** ["lvs/top-open"] *)
val r_top_open : Diag.rule

(** ["lvs/netbuild-mismatch"] *)
val r_netbuild_mismatch : Diag.rule

(** ["lvs/off-grid"] *)
val r_off_grid : Diag.rule

(** ["lvs/unknown-net"] *)
val r_unknown_net : Diag.rule

(** ["lvs/diagonal"] *)
val r_diagonal : Diag.rule

(** Every rule this module owns. *)
val rules : Diag.rule list
