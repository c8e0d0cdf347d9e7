(** Technology/model sanity rules: a {!Tech.Process.t} (built in or loaded
    from a tech file) must describe a physically plausible process before
    any extraction result computed with it can be trusted. *)

(** ["tech/positive-resistance"] *)
val r_resistance : Diag.rule

(** ["tech/positive-capacitance"] *)
val r_capacitance : Diag.rule

(** ["tech/geometry"] *)
val r_geometry : Diag.rule

(** ["tech/grid"] *)
val r_grid : Diag.rule

(** ["tech/layer-stack"] *)
val r_stack : Diag.rule

(** ["tech/statistics"] *)
val r_statistics : Diag.rule

(** Every rule this module owns. *)
val rules : Diag.rule list

(** [check tech] runs every tech rule; [[]] means clean. *)
val check : Tech.Process.t -> Diag.t list
