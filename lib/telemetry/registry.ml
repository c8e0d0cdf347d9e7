(* The catalogue.  Keep docs/TELEMETRY.md in sync: it is the rendered
   form of exactly this list. *)

let m = Metric.make

let size_buckets = [| 4.; 16.; 64.; 256.; 1024.; 4096. |]

let definitions =
  [ (* flow *)
    m ~id:"flow/runs_total" ~kind:Metric.Counter ~stage:"flow" ~unit_:"1"
      ~cardinality:"1"
      ~doc:"Completed Flow.run / Flow.run_placement invocations.";
    (* place *)
    m ~id:"place/cells" ~kind:Metric.Gauge ~stage:"place" ~unit_:"1"
      ~cardinality:"1"
      ~doc:"Grid size (rows x cols) of the placement just built.";
    (* route *)
    m ~id:"route/groups" ~kind:Metric.Gauge ~stage:"route" ~unit_:"1"
      ~cardinality:"1"
      ~doc:"Connected groups formed over all capacitors of the last routed \
            layout.";
    m ~id:"route/tracks" ~kind:Metric.Gauge ~stage:"route" ~unit_:"1"
      ~cardinality:"1"
      ~doc:"Total trunk tracks allocated across channels.";
    m ~id:"route/wires" ~kind:Metric.Gauge ~stage:"route" ~unit_:"1"
      ~cardinality:"1"
      ~doc:"Wire segments emitted (branches, stubs, trunks, bridges).";
    m ~id:"route/vias" ~kind:Metric.Gauge ~stage:"route" ~unit_:"1"
      ~cardinality:"1" ~doc:"Via junctions emitted.";
    (* verify *)
    m ~id:"verify/checks_total" ~kind:Metric.Counter ~stage:"verify"
      ~unit_:"1" ~cardinality:"per artifact (tech, style, placement, layout)"
      ~doc:"Verification passes executed, by audited artifact kind.";
    m ~id:"verify/rule_fired_total" ~kind:Metric.Counter ~stage:"verify"
      ~unit_:"1" ~cardinality:"per rule"
      ~doc:"Diagnostics emitted by the rule-registry linter, by rule id.";
    (* lvs *)
    m ~id:"lvs/shapes" ~kind:Metric.Gauge ~stage:"lvs" ~unit_:"1"
      ~cardinality:"1"
      ~doc:"Shapes (cell plates, wires, vias) flattened by the last LVS \
            extraction.";
    m ~id:"lvs/contacts" ~kind:Metric.Gauge ~stage:"lvs" ~unit_:"1"
      ~cardinality:"1"
      ~doc:"Same-layer contact pairs found by the sweepline and the plate \
            lattice.";
    m ~id:"lvs/sort_keys" ~kind:Metric.Gauge ~stage:"lvs" ~unit_:"1"
      ~cardinality:"1"
      ~doc:"Keys the last extraction's sweep radix-sorted over its three \
            layers, one per box index per sort.";
    m ~id:"lvs/components" ~kind:Metric.Gauge ~stage:"lvs" ~unit_:"1"
      ~cardinality:"1"
      ~doc:"Connected components after closing connectivity through vias.";
    m ~id:"lvs/defects_total" ~kind:Metric.Counter ~stage:"lvs" ~unit_:"1"
      ~cardinality:"per rule"
      ~doc:"LVS diagnostics emitted, by lvs/* rule id.";
    (* extract *)
    m ~id:"extract/via_cuts" ~kind:Metric.Gauge ~stage:"extract" ~unit_:"1"
      ~cardinality:"per capacitor (C0..CN)"
      ~doc:"Physical via cuts of the capacitor's net (p^2 per junction).";
    m ~id:"extract/wirelength_um" ~kind:Metric.Gauge ~stage:"extract"
      ~unit_:"um" ~cardinality:"per capacitor (C0..CN)"
      ~doc:"Routed physical metal of the capacitor's net.";
    m ~id:"extract/bends" ~kind:Metric.Gauge ~stage:"extract" ~unit_:"1"
      ~cardinality:"per capacitor (C0..CN)"
      ~doc:"Orthogonal junctions (stub-trunk attaches plus bridge \
            landings) of the capacitor's net.";
    m ~id:"extract/nets_total" ~kind:Metric.Counter ~stage:"extract"
      ~unit_:"1" ~cardinality:"1"
      ~doc:"Per-capacitor nets extracted.";
    (* rcnet: a flow's Elmore solves run in the extract stage, which
       builds each net's RC tree once (the lvs stage's Netbuild
       cross-check reads topology only); the transient solver is not part
       of the flow *)
    m ~id:"rcnet/elmore_solves_total" ~kind:Metric.Counter ~stage:"extract"
      ~unit_:"1" ~cardinality:"1"
      ~doc:"Elmore delay solves (one tree orientation + two sweeps each).";
    m ~id:"rcnet/nodes" ~kind:Metric.(Histogram size_buckets)
      ~stage:"extract" ~unit_:"1" ~cardinality:"1"
      ~doc:"RC tree node count per Elmore solve.";
    m ~id:"rcnet/edges" ~kind:Metric.(Histogram size_buckets)
      ~stage:"extract" ~unit_:"1" ~cardinality:"1"
      ~doc:"RC tree edge count per Elmore solve.";
    m ~id:"rcnet/transient_steps_total" ~kind:Metric.Counter ~stage:"extract"
      ~unit_:"1" ~cardinality:"1"
      ~doc:"Backward-Euler steps taken by the transient solver.";
    (* analyse *)
    m ~id:"analyse/codes" ~kind:Metric.Gauge ~stage:"analyse" ~unit_:"1"
      ~cardinality:"1"
      ~doc:"DAC codes evaluated by the last nonlinearity analysis (2^N).";
    m ~id:"analyse/covariance_points" ~kind:Metric.Gauge ~stage:"analyse"
      ~unit_:"1" ~cardinality:"1"
      ~doc:"Work of the last covariance build: 2-D transforms times \
            transform-grid points of the lattice kernel, 0 when it \
            enumerated cell pairs.";
    m ~id:"analyse/covariance_lookups" ~kind:Metric.Gauge ~stage:"analyse"
      ~unit_:"1" ~cardinality:"1"
      ~doc:"Direct work of the last covariance build: table lookups of \
            the lattice kernel's direct sums, 0 when it enumerated cell \
            pairs.";
    m ~id:"analyse/mc_trials_total" ~kind:Metric.Counter ~stage:"analyse"
      ~unit_:"1" ~cardinality:"1"
      ~doc:"Monte-Carlo mismatch trials evaluated.";
    (* sched *)
    m ~id:"sched/pool-degraded" ~kind:Metric.Counter ~stage:"sched" ~unit_:"1"
      ~cardinality:"1"
      ~doc:"Worker domains requested but not spawned (Domain.spawn hit the \
            domain limit); the pool then runs on the domains it got.";
    (* qor *)
    m ~id:"qor/records_total" ~kind:Metric.Counter ~stage:"qor" ~unit_:"1"
      ~cardinality:"1"
      ~doc:"QoR records appended to a ledger.";
    m ~id:"qor/ledger_records" ~kind:Metric.Gauge ~stage:"qor" ~unit_:"1"
      ~cardinality:"1"
      ~doc:"Records parsed from the last ledger load.";
    m ~id:"qor/diffs_total" ~kind:Metric.Counter ~stage:"qor" ~unit_:"1"
      ~cardinality:"1"
      ~doc:"Baseline comparisons executed by the regression sentinel.";
    m ~id:"qor/verdicts_total" ~kind:Metric.Counter ~stage:"qor" ~unit_:"1"
      ~cardinality:"per verdict (improved, unchanged, regressed, incomparable)"
      ~doc:"Per-metric verdicts emitted across comparisons, by verdict.";
    m ~id:"qor/explain_elements" ~kind:Metric.Gauge ~stage:"qor" ~unit_:"1"
      ~cardinality:"1"
      ~doc:"Physical elements in the last attribution breakdown (delay \
            parts plus capacitor INL shares)." ]

let all =
  let sorted =
    List.sort (fun a b -> String.compare a.Metric.id b.Metric.id) definitions
  in
  let rec dup = function
    | a :: (b :: _ as rest) ->
      if String.equal a.Metric.id b.Metric.id then Some a.Metric.id
      else dup rest
    | [ _ ] | [] -> None
  in
  match dup sorted with
  | Some id -> invalid_arg ("Telemetry.Registry: duplicate metric id " ^ id)
  | None -> sorted

(* Built eagerly at module initialisation: a lazy table forced from two
   pool domains at once raises [CamlinternalLazy.Undefined] in one of
   them.  Read-only afterwards, so concurrent lookups are safe. *)
let table =
  let t = Hashtbl.create 64 in
  List.iter (fun def -> Hashtbl.replace t def.Metric.id def) all;
  t

let find id = Hashtbl.find_opt table id

let ids = List.map (fun def -> def.Metric.id) all
