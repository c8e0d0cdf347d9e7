(** Technology/model sanity rules: a {!Tech.Process.t} (built in or loaded
    from a tech file) must describe a physically plausible process before
    any extraction result computed with it can be trusted. *)

(** ["tech/positive-resistance"] *)
val r_resistance : Rule.t

(** ["tech/positive-capacitance"] *)
val r_capacitance : Rule.t

(** ["tech/geometry"] *)
val r_geometry : Rule.t

(** ["tech/grid"] *)
val r_grid : Rule.t

(** ["tech/layer-stack"] *)
val r_stack : Rule.t

(** ["tech/statistics"] *)
val r_statistics : Rule.t

(** Every rule this module owns. *)
val rules : Rule.t list

(** [check tech] runs every tech rule; [[]] means clean. *)
val check : Tech.Process.t -> Diagnostic.t list
