(** End-to-end constructive CC layout flow (Sec. IV): place, route,
    extract, analyse — the library's primary entry point.

    {[
      let r = Ccdac.Flow.run ~bits:8 Ccplace.Style.Spiral in
      Format.printf "f3dB = %.0f MHz, |INL| = %.3f LSB@."
        r.Ccdac.Flow.f3db_mhz r.Ccdac.Flow.max_inl
    ]} *)

type result = {
  style : Ccplace.Style.t;
  bits : int;
  tech : Tech.Process.t;
  placement : Ccgrid.Placement.t;
  layout : Ccroute.Layout.t;
  parasitics : Extract.Parasitics.t;
  covariance : Capmodel.Covariance.t;
      (** Eq. 6 covariance of the placement, built once in the analyse
          stage; pass it as [?cov] to {!Dacmodel.Montecarlo.run} or
          {!Dacmodel.Nonlinearity.attribute} instead of rebuilding it *)
  nonlinearity : Dacmodel.Nonlinearity.t;
  max_inl : float;           (** max |INL(i)|, LSB *)
  max_dnl : float;           (** max |DNL(i)|, LSB *)
  tau_fs : float;            (** worst-bit Elmore time constant *)
  f3db_mhz : float;          (** Eq. 16 *)
  critical_bit : int;
  area : float;              (** um^2 *)
  verify_diagnostics : Verify.Diagnostic.t list;
      (** what the verify gate passed the layout with: warnings and infos
          only, since an error raises; [[]] under [~verify:false] *)
  lvs_diagnostics : Verify.Diagnostic.t list;
      (** the same for the LVS gate *)
  telemetry : Telemetry.Summary.t;
      (** per-stage spans and metrics for this run (see docs/TELEMETRY.md);
          {!Telemetry.Summary.empty} when the result was built outside
          {!run} / {!run_placement} *)
  elapsed_place_route_s : float;
      (** monotonic wall-clock of place+route (Table III), derived from
          [telemetry]: exactly the place and route stage times, excluding
          the verification gate and analysis *)
}

(** [elapsed_place_route_s r] — accessor for the Table III runtime; kept
    as a stable name now that per-stage timings live in [r.telemetry]. *)
val elapsed_place_route_s : result -> float

(** [run ?tech ?parallel ?verify ?theta ~bits style].

    [parallel] is the per-capacitor parallel-wire count; by default the
    paper's policy: the paper's own styles (spiral and block chessboard)
    route their three MSB capacitors with 2 parallel wires, while the
    prior-work baselines ([1] proxy and [7]) use single wires, matching
    Sec. V ("Both S and BC use our parallel routing method").

    [verify] (default [true]) gates the flow on the {!Verify} registry
    linter: the tech description and the style are audited before
    anything is placed, and the placement and the routed layout before
    extraction; any Error-severity diagnostic raises
    {!Verify.Engine.Rejected} — bad artifacts are rejected loudly rather
    than silently mis-measured, and an out-of-domain input (a bit width
    outside [1, 16], a block-chess core or granularity out of range, a
    broken layer stack) meets its rule id instead of raising in the
    placer or the router.  Pass [~verify:false] to route
    deliberately out-of-contract artifacts (e.g. to study them with the
    linter itself). *)
val run :
  ?tech:Tech.Process.t ->
  ?parallel:(int -> int) ->
  ?verify:bool ->
  ?theta:float ->
  bits:int ->
  Ccplace.Style.t ->
  result

(** [median_run ?tech ~repeat ~bits style] runs {!run} [repeat] times and
    returns the run with the median {!elapsed_place_route_s}: index
    [repeat / 2] of the runs sorted by it (a stable sort, so ties keep
    run order).  Every repeated measurement of the flow goes through it:
    [ccgen profile] and [ccgen record], [BENCH_flow.json], the QoR
    baseline and Table III.  Raises [Invalid_argument] when
    [repeat < 1]. *)
val median_run :
  ?tech:Tech.Process.t -> repeat:int -> bits:int -> Ccplace.Style.t -> result

(** [default_parallel ~bits style] is the policy described above. *)
val default_parallel : bits:int -> Ccplace.Style.t -> int -> int

(** [run_placement ?tech ?verify placement] routes and analyses a
    {e prebuilt} binary-weighted placement — e.g. one loaded from a file
    or hand-constructed.  The result is labelled Spiral and routed with
    the Spiral parallel-wire policy; the analysis uses the tech's
    gradient angle.  Raises [Invalid_argument] when
    the placement's counts are not binary-weighted: the DAC transfer
    model assumes binary ratios (use the extraction layer directly for
    general ratios).  [verify] gates on the linter as in {!run}, the tech
    before routing: hand-constructed placements that break the
    common-centroid contract raise {!Verify.Engine.Rejected} unless
    [~verify:false]. *)
val run_placement :
  ?tech:Tech.Process.t -> ?verify:bool -> Ccgrid.Placement.t -> result

(** [place_route ?tech ?parallel ?verify ~bits style] runs only placement
    and routing, returning the layout and the wall-clock seconds of place
    + route, without analysis cost.  The input gate runs before the
    clock starts and the verification gate {e after} it stops, so
    timings stay comparable.  Table III itself reads
    {!median_run}'s {!elapsed_place_route_s}. *)
val place_route :
  ?tech:Tech.Process.t ->
  ?parallel:(int -> int) ->
  ?verify:bool ->
  bits:int ->
  Ccplace.Style.t ->
  Ccroute.Layout.t * float
