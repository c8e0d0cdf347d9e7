(** Cross-bit-width scaling probe: run the full flow (plus a Monte-Carlo
    stage) across a ladder of resolutions and fit per-stage log-log
    power-law growth exponents against the unit-cell count.

    An exponent near 1 means a stage scales linearly in cells, near 2
    quadratically; [ccgen scale] renders the report (docs/BENCH.md).
    Each rung runs with {!Telemetry.Memory} sampling forced on (the
    allocation series is half the point) and inside a
    {!Par.Sched.collect} scope, so when scheduler recording is enabled
    the report also carries pool utilization figures. *)

(** One rung of the ladder. *)
type point = {
  p_bits : int;
  p_cells : int;                        (** placement rows x cols *)
  p_stage_s : (string * float) list;
      (** flow stage walls plus the ["mc"] stage and a ["total"] row *)
  p_stage_alloc_mb : (string * float) list;  (** same keys, MB allocated *)
  p_sched : Par.Sched.summary;          (** scheduler activity of the rung *)
  p_result : Flow.result;
}

(** One fitted stage: wall seconds ~ cells^exponent. *)
type fit = {
  f_stage : string;
  f_exponent : float;   (** log-log least-squares slope *)
  f_r2 : float;         (** goodness of the fit, [0, 1] *)
}

type t = {
  points : point list;  (** in ladder order *)
  fits : fit list;      (** in stage order *)
  sched : Par.Sched.summary;
      (** scheduler activity of the whole ladder: every batch of every
          rung, summarized once *)
}

(** [fit_loglog pairs] is [Some (slope, r2)] for the least-squares line
    through [(log x, log y)] — the growth exponent of [y ~ x^slope].
    Non-positive or NaN [x] pairs are dropped; [y] is floored at 1e-9 so
    an unmeasurably fast stage never produces [log 0].  [None] when
    fewer than two distinct [x] values survive.  Pure; exposed so the
    regression convention is pinned by tests. *)
val fit_loglog : (float * float) list -> (float * float) option

(** [run ?tech ?style_of_bits ?trials ?seed bits_list] probes each bit
    width in order and fits every stage present at the first rung.
    [style_of_bits] (default: spiral everywhere) lets the caller keep
    style parameters consistent across the ladder (e.g. block-chess core
    sizing).  [trials] (default 100) and [seed] (default 1) drive the
    Monte-Carlo stage; every stage takes its worker count from the
    {!Par.Jobs} default.  Raises [Invalid_argument] on an empty
    ladder. *)
val run :
  ?tech:Tech.Process.t ->
  ?style_of_bits:(int -> Ccplace.Style.t) ->
  ?trials:int ->
  ?seed:int ->
  int list ->
  t

val to_json : t -> Telemetry.Json.t

(** [pp ppf t] prints the stage x ladder wall-time table with the fitted
    exponents, the cell counts, and the scheduler summary line. *)
val pp : Format.formatter -> t -> unit
