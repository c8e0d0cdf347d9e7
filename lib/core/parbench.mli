(** Measured parallel speedup — the number the QoR ledger and the bench
    table record next to [jobs] (docs/PARALLEL.md).

    The probe is the Monte-Carlo engine: same seeded workload at
    [jobs = 1] and at the requested count, wall times compared.  The two
    runs are bitwise-identical by the substream determinism contract, so
    any divergence is a bug and raises. *)

type t = {
  jobs : int;          (** worker count the parallel leg ran at *)
  trials : int;
  serial_s : float;    (** wall time at [jobs = 1] *)
  parallel_s : float;  (** wall time at [jobs] *)
  speedup : float;     (** [serial_s /. parallel_s] *)
}

(** [mc_speedup ?tech ?bits ?style ?trials ?jobs ()] times the probe.
    [trials] defaults to twice {!Dacmodel.Montecarlo.min_parallel_trials},
    so the parallel leg runs on the pool; below that threshold both legs
    are serial.  [jobs] defaults to {!Par.Jobs.default}; at [jobs = 1]
    the speedup is ~1 by construction.  Raises [Invalid_argument] if the
    parallel run's statistics diverge from the serial run's. *)
val mc_speedup :
  ?tech:Tech.Process.t -> ?bits:int -> ?style:Ccplace.Style.t ->
  ?trials:int -> ?jobs:int -> unit -> t
