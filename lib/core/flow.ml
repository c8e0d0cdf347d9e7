let log_src = Logs.Src.create "ccdac.flow" ~doc:"CC layout flow"

module Log = (val Logs.src_log log_src : Logs.LOG)

type result = {
  style : Ccplace.Style.t;
  bits : int;
  tech : Tech.Process.t;
  placement : Ccgrid.Placement.t;
  layout : Ccroute.Layout.t;
  parasitics : Extract.Parasitics.t;
  covariance : Capmodel.Covariance.t;
  nonlinearity : Dacmodel.Nonlinearity.t;
  max_inl : float;
  max_dnl : float;
  tau_fs : float;
  f3db_mhz : float;
  critical_bit : int;
  area : float;
  verify_diagnostics : Verify.Diagnostic.t list;
  lvs_diagnostics : Verify.Diagnostic.t list;
  telemetry : Telemetry.Summary.t;
  elapsed_place_route_s : float;
}

let elapsed_place_route_s r = r.elapsed_place_route_s

let default_parallel ~bits style =
  match style with
  | Ccplace.Style.Spiral | Ccplace.Style.Block_chess _ ->
    Ccroute.Layout.msb_parallel ~bits ~p:2
  | Ccplace.Style.Chessboard | Ccplace.Style.Rowwise -> fun _ -> 1

(* One flow stage: a span named after the stage, timed on the monotonic
   clock.  The span is the flow's one per-stage timing source: the
   summary's stage table, QoR [stage_s], [ccgen profile] and Chrome
   traces all read it. *)
let stage name f = Telemetry.Span.with_ ~name f

(* The input gate, when [verify]: the tech rules and, given
   [~style:(bits, style)], the style rules, as [Verify.Engine.lint] runs
   them before it places — so an out-of-domain input meets its rule
   instead of raising in the placer or the router.  It runs outside
   every stage and the Table III clock.  Rejection raises
   [Verify.Engine.Rejected]; otherwise the diagnostics it passed with
   are returned. *)
let admit ~verify ~what ?style tech =
  if not verify then []
  else begin
    let diags = Verify.Engine.check_inputs ?style tech in
    Verify.Engine.assert_clean ~what diags;
    diags
  end

(* The verification gate: nothing leaves place-and-route for extraction
   unless the registry linter signs off on placement and layout, the
   tech having passed [admit].  Rejection raises
   [Verify.Engine.Rejected] carrying every diagnostic; otherwise the
   diagnostics it passed with are returned. *)
let verify_layout ~what (layout : Ccroute.Layout.t) =
  let diags = Verify.Engine.check_built layout in
  Log.debug (fun m ->
      m "%s: verification (%d diagnostics)" what (List.length diags));
  Verify.Engine.assert_clean ~what diags;
  diags

(* The LVS gate: whole-layout connectivity extraction against the
   intended netlist.  Runs after the rule linter (and, like it, outside
   the Table III place+route clock); a defect raises
   [Verify.Engine.Rejected] through the same reporting path.  Its
   cross-check reads each net's RC model topology and builds no RC
   tree. *)
let lvs_layout ~what layout =
  let diags = (Lvs.Check.run layout).Lvs.Check.diagnostics in
  Verify.Engine.assert_clean ~what diags;
  diags

(* The verify and LVS gates of one layout, when [verify]: the diagnostics
   each passed with, those the input gate passed with ([inputs]) first
   among verify's. *)
let gates ~verify ~what ~inputs layout =
  if verify then
    let v = stage "verify" (fun () -> verify_layout ~what layout) in
    (inputs @ v, stage "lvs" (fun () -> lvs_layout ~what layout))
  else ([], [])

(* Place, route and gate one design: the layout, the place+route seconds
   and the gates' diagnostics. *)
let place_route_gated ~tech ?parallel ~verify ~bits style =
  let what = Printf.sprintf "%s %d-bit" (Ccplace.Style.name style) bits in
  let inputs = admit ~verify ~what ~style:(bits, style) tech in
  let parallel =
    Option.value parallel ~default:(default_parallel ~bits style)
  in
  let t0 = Telemetry.Clock.now_ns () in
  let placement = stage "place" (fun () -> Ccplace.Style.place ~bits style) in
  let layout =
    stage "route" (fun () ->
        Ccroute.Layout.route tech ~p_of_cap:parallel placement)
  in
  (* Table III measurement: the clock stops before the verification gate
     runs, so linting never skews place+route timings. *)
  let t1 = Telemetry.Clock.now_ns () in
  let diagnostics = gates ~verify ~what ~inputs layout in
  let elapsed = Telemetry.Clock.to_s (Int64.sub t1 t0) in
  Log.debug (fun m ->
      m "%s %d-bit: place+route %.3f ms (%d groups, %d tracks)"
        (Ccplace.Style.name style) bits (1e3 *. elapsed)
        (Ccroute.Group.count layout.Ccroute.Layout.groups)
        (Ccroute.Plan.total_tracks layout.Ccroute.Layout.plan));
  (layout, elapsed, diagnostics)

let place_route ?(tech = Tech.Process.finfet_12nm) ?parallel ?(verify = true)
    ~bits style =
  let layout, elapsed, _ =
    place_route_gated ~tech ?parallel ~verify ~bits style
  in
  (layout, elapsed)

(* analysis shared by [run] and [run_placement]; [diagnostics] are the
   gates' (verify, lvs) findings, and [recorded] fills the telemetry and
   the Table III runtime.  Extraction builds each net's RC tree once;
   nothing else in the flow builds one. *)
let analyze_layout ~tech ?theta ~style
    ~diagnostics:(verify_diagnostics, lvs_diagnostics) layout =
  let placement = layout.Ccroute.Layout.placement in
  let bits = placement.Ccgrid.Placement.bits in
  let parasitics =
    stage "extract" (fun () -> Extract.Parasitics.extract layout)
  in
  let covariance, nonlinearity =
    stage "analyse" (fun () ->
        let cov = Dacmodel.Nonlinearity.covariance tech placement in
        ( cov,
          Dacmodel.Nonlinearity.analyze tech ?theta ~cov
            ~top_parasitic:parasitics.Extract.Parasitics.total_top_cap
            placement ))
  in
  let tau_fs = parasitics.Extract.Parasitics.critical_elmore_fs in
  Log.debug (fun m ->
      m "%s %d-bit: extraction + nonlinearity (critical C_%d, tau %.1f ps)"
        (Ccplace.Style.name style) bits
        parasitics.Extract.Parasitics.critical_bit (tau_fs /. 1e3));
  { style;
    bits;
    tech;
    placement;
    layout;
    parasitics;
    covariance;
    nonlinearity;
    max_inl = nonlinearity.Dacmodel.Nonlinearity.max_abs_inl;
    max_dnl = nonlinearity.Dacmodel.Nonlinearity.max_abs_dnl;
    tau_fs;
    f3db_mhz = Dacmodel.Speed.f3db_mhz ~bits ~tau_fs;
    critical_bit = parasitics.Extract.Parasitics.critical_bit;
    area = parasitics.Extract.Parasitics.area;
    verify_diagnostics;
    lvs_diagnostics;
    telemetry = Telemetry.Summary.empty;
    elapsed_place_route_s = 0. }

(* Record one flow invocation: fresh metric scope + span collector around
   [f], then fill the telemetry and derive the Table III runtime from its
   stage table, so [elapsed_place_route_s] is exactly place + route — the
   verification gate and the analysis stages can never leak into it. *)
let recorded ~attrs f =
  let r, telemetry = Telemetry.Summary.record ~attrs ~name:"flow" f in
  { r with
    telemetry;
    elapsed_place_route_s = Telemetry.Summary.place_route_seconds telemetry }

let run ?(tech = Tech.Process.finfet_12nm) ?parallel ?(verify = true) ?theta
    ~bits style =
  recorded
    ~attrs:
      [ ("style", Telemetry.Span.Str (Ccplace.Style.name style));
        ("bits", Telemetry.Span.Int bits) ]
    (fun () ->
       Telemetry.Metrics.incr "flow/runs_total";
       let layout, _, diagnostics =
         place_route_gated ~tech ?parallel ~verify ~bits style
       in
       analyze_layout ~tech ?theta ~style ~diagnostics layout)

let median_run ?tech ~repeat ~bits style =
  if repeat < 1 then invalid_arg "Flow.median_run: repeat must be >= 1";
  let runs = List.init repeat (fun _ -> run ?tech ~bits style) in
  let by_place_route a b =
    Float.compare a.elapsed_place_route_s b.elapsed_place_route_s
  in
  List.nth (List.stable_sort by_place_route runs) (repeat / 2)

let run_placement ?(tech = Tech.Process.finfet_12nm) ?(verify = true)
    placement =
  let bits = placement.Ccgrid.Placement.bits in
  let expected =
    Ccgrid.Weights.scale (Ccgrid.Weights.unit_counts ~bits)
      ~by:placement.Ccgrid.Placement.unit_multiplier
  in
  if placement.Ccgrid.Placement.counts <> expected then
    invalid_arg
      "Flow.run_placement: placement is not binary-weighted (the INL/DNL \
       and transfer models assume binary ratios)";
  let style = Ccplace.Style.Spiral in
  let parallel = default_parallel ~bits style in
  recorded
    ~attrs:
      [ ( "style",
          Telemetry.Span.Str placement.Ccgrid.Placement.style_name );
        ("bits", Telemetry.Span.Int bits) ]
    (fun () ->
       Telemetry.Metrics.incr "flow/runs_total";
       let what =
         Printf.sprintf "%s %d-bit (prebuilt placement)"
           placement.Ccgrid.Placement.style_name bits
       in
       let inputs = admit ~verify ~what tech in
       let layout =
         stage "route" (fun () ->
             Ccroute.Layout.route tech ~p_of_cap:parallel placement)
       in
       let diagnostics = gates ~verify ~what ~inputs layout in
       analyze_layout ~tech ~style ~diagnostics layout)
