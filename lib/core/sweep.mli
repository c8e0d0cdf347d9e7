(** Multi-configuration sweeps: the paper's tables compare four methods per
    bit count and report the best block-chessboard configuration
    (Sec. V: "Several BC structures are considered ... and the best BC
    result is reported").

    Every entry point takes [?jobs] (default {!Par.Jobs.default}) and
    fans its independent flow runs over a domain pool; results come back
    in the same order as the serial code and are byte-identical at any
    worker count (docs/PARALLEL.md). *)

(** [paper_methods] in table column order: [1] proxy, [7], S, BC-best. *)
val paper_methods : Ccplace.Style.t list

(** [row ?tech ?jobs ~bits ()] runs all four methods for one
    bit count.  The BC entry is the best of its family (Fig. 4
    granularities at the default core): the result with the highest 3 dB
    frequency among those with |INL| and |DNL| within 0.5 LSB (all
    results, if none qualify).  The three paper methods and the whole
    family run as one parallel batch.  Note the Rowwise baseline
    substitutes [1] (DESIGN.md). *)
val row :
  ?tech:Tech.Process.t -> ?jobs:int -> bits:int -> unit -> Flow.result list

(** [parallel_sweep ?tech ?jobs ~bits ~style ks] reruns [style] with the
    MSB parallel-wire count set to each [k] and returns
    [(k, f3db_mhz)] pairs — the data of Fig. 6a. *)
val parallel_sweep :
  ?tech:Tech.Process.t ->
  ?jobs:int -> bits:int -> style:Ccplace.Style.t -> int list ->
  (int * float) list
