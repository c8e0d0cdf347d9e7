(** Text reports reproducing the paper's tables and figures. *)

(** [table1 rows] formats Table I (electrical metrics) given, per bit
    count, the four method results in {!Sweep.paper_methods} + BC order. *)
val table1 : (int * Flow.result list) list -> string

(** [table2 rows] formats Table II (area, |DNL|/|INL|, f3dB). *)
val table2 : (int * Flow.result list) list -> string

(** [table3 rows] formats Table III (place+route runtimes) given
    [(bits, spiral_seconds, bc_seconds)] triples, printed in milliseconds
    to three decimals (a 9 us run reads [0.009]). *)
val table3 : (int * float * float) list -> string

(** [fig6a series] formats the parallel-wire improvement factors:
    [(bits, (k, f3db_mhz) list)] with factors normalised to k = 1. *)
val fig6a : (int * (int * float) list) list -> string

(** [fig6b rows] formats f3dB of every method normalised to spiral. *)
val fig6b : (int * Flow.result list) list -> string

(** [summary r] is a one-result human-readable block (used by examples and
    the CLI). *)
val summary : Flow.result -> string
