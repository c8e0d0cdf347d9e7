(** Placement-style configuration rules: catch invalid or unstudied
    {!Ccplace.Style.t} configurations before any cell is placed. *)

(** ["style/bits-range"] *)
val r_bits : Diag.rule

(** ["style/block-core-bits"] *)
val r_core_bits : Diag.rule

(** ["style/block-granularity"] *)
val r_granularity : Diag.rule

(** ["style/block-granularity-unswept"] *)
val r_unswept : Diag.rule

(** Every rule this module owns. *)
val rules : Diag.rule list

(** [check ~bits style] validates the (resolution, style) pair. *)
val check : bits:int -> Ccplace.Style.t -> Diag.t list
