(* Tests for the telemetry subsystem: clock, spans, metrics, JSON,
   Chrome-trace export, and the flow instrumentation built on them. *)

module T = Telemetry

(* --- clock --- *)

let test_clock_monotonic () =
  let a = T.Clock.now_ns () in
  let b = T.Clock.now_ns () in
  Alcotest.(check bool) "non-decreasing" true (Int64.compare b a >= 0);
  (* a start time in the future clamps to zero elapsed *)
  Alcotest.(check int64) "since clamps negative" 0L
    (T.Clock.since_ns (Int64.add (T.Clock.now_ns ()) 1_000_000_000L))

let test_clock_units () =
  Alcotest.(check (float 1e-9)) "to_s" 1.5 (T.Clock.to_s 1_500_000_000L);
  Alcotest.(check (float 1e-9)) "to_us" 2.5 (T.Clock.to_us 2_500L)

(* --- spans --- *)

let test_span_inactive_fast_path () =
  Alcotest.(check bool) "inactive by default" false (T.Span.active ());
  Alcotest.(check int) "passthrough" 42 (T.Span.with_ ~name:"x" (fun () -> 42))

let test_span_nesting () =
  let (), spans =
    T.Span.collect (fun () ->
        T.Span.with_ ~name:"outer" (fun () ->
            T.Span.with_ ~name:"a" (fun () -> ());
            T.Span.with_ ~name:"b" (fun () ->
                T.Span.with_ ~name:"leaf" (fun () -> ()))))
  in
  let names = List.map (fun s -> s.T.Span.name) spans in
  (* collect returns start order: the pre-order walk *)
  Alcotest.(check (list string)) "pre-order"
    [ "outer"; "a"; "b"; "leaf" ] names;
  let find n = List.find (fun s -> s.T.Span.name = n) spans in
  Alcotest.(check int) "outer depth" 0 (find "outer").T.Span.depth;
  Alcotest.(check int) "a depth" 1 (find "a").T.Span.depth;
  Alcotest.(check int) "leaf depth" 2 (find "leaf").T.Span.depth;
  Alcotest.(check (option string)) "a parent" (Some "outer")
    (find "a").T.Span.parent;
  Alcotest.(check (option string)) "leaf parent" (Some "b")
    (find "leaf").T.Span.parent;
  Alcotest.(check (option string)) "outer root" None
    (find "outer").T.Span.parent;
  List.iter
    (fun s ->
       Alcotest.(check bool)
         (s.T.Span.name ^ " duration >= 0") true
         (Int64.compare s.T.Span.duration_ns 0L >= 0))
    spans;
  (* the parent's interval contains the child's *)
  let outer = find "outer" and leaf = find "leaf" in
  Alcotest.(check bool) "child starts after parent" true
    (Int64.compare leaf.T.Span.start_ns outer.T.Span.start_ns >= 0);
  Alcotest.(check bool) "seq increases with start order" true
    (leaf.T.Span.seq > outer.T.Span.seq)

let test_span_exception_safety () =
  let res, spans =
    T.Span.collect (fun () ->
        try
          T.Span.with_ ~name:"boom" (fun () -> failwith "x")
        with Failure _ -> "caught")
  in
  Alcotest.(check string) "exception propagated" "caught" res;
  Alcotest.(check int) "span still delivered" 1 (List.length spans);
  (* the stack unwound: a following span is back at depth 0 *)
  let (), spans2 = T.Span.collect (fun () -> T.Span.with_ ~name:"after" ignore) in
  Alcotest.(check int) "depth reset" 0 (List.hd spans2).T.Span.depth

let test_span_sink_streaming () =
  let seen = ref [] in
  T.Span.with_sink
    (fun s -> seen := s.T.Span.name :: !seen)
    (fun () ->
       T.Span.with_ ~name:"p" (fun () -> T.Span.with_ ~name:"c" ignore));
  (* sinks see completion order: children before parents *)
  Alcotest.(check (list string)) "completion order" [ "p"; "c" ] !seen

(* --- metrics --- *)

let test_metrics_noop_without_scope () =
  Alcotest.(check bool) "disabled" false (T.Metrics.enabled ());
  (* recording outside any scope is a silent no-op, even for bad values *)
  T.Metrics.incr "flow/runs_total";
  T.Metrics.observe "rcnet/nodes" 3.

let test_metrics_counter_gauge () =
  let (), dump =
    T.Metrics.collect (fun () ->
        T.Metrics.incr "flow/runs_total";
        T.Metrics.incr ~n:2 "flow/runs_total";
        T.Metrics.set ~label:"C0" "extract/via_cuts" 0.25;
        T.Metrics.set ~label:"C0" "extract/via_cuts" 0.5)
  in
  Alcotest.(check int) "counter sums" 3 (T.Metrics.counter dump "flow/runs_total");
  Alcotest.(check (option (float 1e-12))) "gauge keeps last" (Some 0.5)
    (T.Metrics.gauge ~label:"C0" dump "extract/via_cuts");
  Alcotest.(check int) "unlabelled series distinct" 0
    (T.Metrics.counter ~label:"zzz" dump "flow/runs_total")

let test_metrics_unknown_id_raises () =
  let in_scope f = fst (T.Metrics.collect f) in
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Telemetry.Metrics: unregistered metric id no/such")
    (fun () -> in_scope (fun () -> T.Metrics.incr "no/such"));
  (* kind mismatch: flow/runs_total is a counter, not a gauge *)
  Alcotest.(check bool) "kind mismatch raises" true
    (try
       in_scope (fun () -> T.Metrics.set "flow/runs_total" 1.);
       false
     with Invalid_argument _ -> true)

let test_metrics_histogram_edges () =
  (* rcnet/nodes buckets: 4 16 64 256 1024 4096, upper-inclusive *)
  let (), dump =
    T.Metrics.collect (fun () ->
        List.iter
          (fun v -> T.Metrics.observe "rcnet/nodes" v)
          [ 4.; 5.; 16.; 4096.; 4097. ])
  in
  match T.Metrics.find dump "rcnet/nodes" with
  | Some (T.Metrics.Dist { bounds = _; counts; sum; total }) ->
    Alcotest.(check int) "total" 5 total;
    Alcotest.(check (float 1e-9)) "sum" 8218. sum;
    (* 4. -> bucket <=4; 5. and 16. -> bucket <=16; 4096. -> last bound;
       4097. -> overflow *)
    Alcotest.(check int) "le 4" 1 counts.(0);
    Alcotest.(check int) "le 16" 2 counts.(1);
    Alcotest.(check int) "le 4096" 1 counts.(5);
    Alcotest.(check int) "overflow" 1 counts.(Array.length counts - 1)
  | _ -> Alcotest.fail "expected a histogram"

let test_metrics_nested_scopes_aggregate () =
  let (), outer =
    T.Metrics.collect (fun () ->
        let (), inner =
          T.Metrics.collect (fun () -> T.Metrics.incr "flow/runs_total")
        in
        T.Metrics.incr "flow/runs_total";
        Alcotest.(check int) "inner sees only its own" 1
          (T.Metrics.counter inner "flow/runs_total"))
  in
  Alcotest.(check int) "outer aggregates both" 2
    (T.Metrics.counter outer "flow/runs_total")

(* --- registry --- *)

let test_registry_catalogue () =
  let ids = T.Registry.ids in
  Alcotest.(check bool) "non-empty" true (List.length ids > 15);
  Alcotest.(check (list string)) "sorted unique" (List.sort_uniq compare ids) ids;
  List.iter
    (fun id ->
       Alcotest.(check bool) (id ^ " findable") true
         (Option.is_some (T.Registry.find id)))
    ids;
  Alcotest.(check bool) "core ids present" true
    (List.for_all
       (fun id -> List.mem id ids)
       [ "flow/runs_total"; "route/vias"; "extract/via_cuts";
         "rcnet/elmore_solves_total"; "verify/rule_fired_total" ])

(* --- JSON --- *)

let test_json_roundtrip () =
  let doc =
    T.Json.Obj
      [ ("a", T.Json.Num 1.5);
        ("b", T.Json.Str "x\"y\n\xe2\x82\xac");
        ("c", T.Json.Arr [ T.Json.Null; T.Json.Bool true; T.Json.Num 3. ]) ]
  in
  match T.Json.parse (T.Json.to_string doc) with
  | Ok parsed -> Alcotest.(check bool) "roundtrip" true (parsed = doc)
  | Error e -> Alcotest.fail e

let test_json_parse_errors () =
  Alcotest.(check bool) "trailing garbage" true
    (Result.is_error (T.Json.parse "{} x"));
  Alcotest.(check bool) "bare word" true (Result.is_error (T.Json.parse "nope"));
  Alcotest.(check bool) "unterminated" true
    (Result.is_error (T.Json.parse "[1, 2"))

(* --- Chrome trace --- *)

let test_chrome_trace_file () =
  let path = Filename.temp_file "ccdac_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       T.Sink.with_
         (T.Sink.chrome_trace ~path)
         (fun () ->
            T.Span.with_ ~name:"root"
              ~attrs:[ ("bits", T.Span.Int 8) ]
              (fun () -> T.Span.with_ ~name:"child" ignore));
       let ic = open_in path in
       let len = in_channel_length ic in
       let body = really_input_string ic len in
       close_in ic;
       match T.Json.parse body with
       | Error e -> Alcotest.fail ("trace not parseable: " ^ e)
       | Ok doc ->
         let all =
           Option.get (T.Json.to_list (Option.get (T.Json.member "traceEvents" doc)))
         in
         let ph e =
           Option.bind (T.Json.member "ph" e) T.Json.to_str
         in
         (* the array leads with process/thread metadata events *)
         let metadata, events =
           List.partition (fun e -> ph e = Some "M") all
         in
         Alcotest.(check int) "two metadata events" 2 (List.length metadata);
         let meta_arg e =
           Option.bind (T.Json.member "args" e) (fun a ->
               Option.bind (T.Json.member "name" a) T.Json.to_str)
         in
         Alcotest.(check (list (option string))) "process and thread names"
           [ Some "ccdac"; Some "root bits=8" ]
           (List.map meta_arg metadata);
         Alcotest.(check int) "two events" 2 (List.length events);
         let names =
           List.filter_map
             (fun e -> Option.bind (T.Json.member "name" e) T.Json.to_str)
             events
         in
         Alcotest.(check (list string)) "start order" [ "root"; "child" ] names;
         List.iter
           (fun e ->
              List.iter
                (fun k ->
                   Alcotest.(check bool) (k ^ " present") true
                     (Option.is_some (T.Json.member k e)))
                [ "ph"; "ts"; "dur"; "pid"; "tid" ];
              let dur =
                Option.get (T.Json.to_float (Option.get (T.Json.member "dur" e)))
              in
              Alcotest.(check bool) "dur >= 0" true (dur >= 0.))
           events;
         (* the root span's interval contains the child's *)
         let ts e =
           Option.get (T.Json.to_float (Option.get (T.Json.member "ts" e)))
         in
         let dur e =
           Option.get (T.Json.to_float (Option.get (T.Json.member "dur" e)))
         in
         match events with
         | [ root; child ] ->
           Alcotest.(check bool) "nested interval" true
             (ts child >= ts root && ts child +. dur child <= ts root +. dur root +. 1.)
         | _ -> Alcotest.fail "expected two events")

(* With memory sampling on, every span grows "C" heap counter events
   (two per span: heap at entry and at exit) and the "X" event carries
   alloc args.  test_chrome_trace_file above pins the sampling-off shape
   — exactly two non-metadata events — so viewers never see counters
   unless asked for. *)
let test_chrome_trace_heap_counters () =
  let spans =
    T.Memory.with_enabled true @@ fun () ->
    snd
      (T.Span.collect (fun () ->
           T.Span.with_ ~name:"root" (fun () ->
               T.Span.with_ ~name:"child" ignore)))
  in
  match T.Json.member "traceEvents" (T.Sink.events_json spans) with
  | None -> Alcotest.fail "no traceEvents"
  | Some evs ->
    let all = Option.get (T.Json.to_list evs) in
    let ph e = Option.bind (T.Json.member "ph" e) T.Json.to_str in
    let counters = List.filter (fun e -> ph e = Some "C") all in
    Alcotest.(check int) "two heap counters per span" 4
      (List.length counters);
    List.iter
      (fun e ->
         Alcotest.(check (option string)) "counter name" (Some "heap_mb")
           (Option.bind (T.Json.member "name" e) T.Json.to_str);
         let heap =
           Option.bind (T.Json.member "args" e) (fun a ->
               Option.bind (T.Json.member "heap_mb" a) T.Json.to_float)
         in
         Alcotest.(check bool) "heap sample >= 0" true
           (match heap with Some h -> h >= 0. | None -> false))
      counters;
    (* the duration events gained allocation args *)
    List.iter
      (fun e ->
         if ph e = Some "X" then
           Alcotest.(check bool) "alloc_mb arg present" true
             (Option.is_some
                (Option.bind (T.Json.member "args" e)
                   (T.Json.member "alloc_mb"))))
      all

(* --- summary + flow instrumentation --- *)

let flow_stages = [ "place"; "route"; "verify"; "lvs"; "extract"; "analyse" ]

let test_flow_summary_stages () =
  let r = Ccdac.Flow.run ~bits:6 Ccplace.Style.Spiral in
  let t = r.Ccdac.Flow.telemetry in
  Alcotest.(check string) "root name" "flow" t.T.Summary.name;
  Alcotest.(check (list string)) "exactly the six stages, in order"
    flow_stages (T.Summary.stage_names t);
  List.iter
    (fun (_, s) -> Alcotest.(check bool) "stage duration >= 0" true (s >= 0.))
    t.T.Summary.stages;
  Alcotest.(check bool) "total covers stages" true
    (t.T.Summary.total_s
     >= List.fold_left (fun acc (_, s) -> acc +. s) 0. t.T.Summary.stages /. 2.)

let test_flow_elapsed_is_place_plus_route () =
  let r = Ccdac.Flow.run ~bits:6 Ccplace.Style.Chessboard in
  let t = r.Ccdac.Flow.telemetry in
  let stage n = Option.get (T.Summary.stage_seconds t n) in
  Alcotest.(check (float 1e-12)) "derived accessor"
    (stage "place" +. stage "route")
    (Ccdac.Flow.elapsed_place_route_s r);
  (* the verify gate ran, took measurable time, and is excluded *)
  Alcotest.(check bool) "verify stage timed" true (stage "verify" >= 0.);
  Alcotest.(check bool) "verify excluded" true
    (r.Ccdac.Flow.elapsed_place_route_s
     <= t.T.Summary.total_s -. stage "verify" +. 1e-9)

let test_flow_no_verify_stage_when_disabled () =
  let r = Ccdac.Flow.run ~verify:false ~bits:6 Ccplace.Style.Spiral in
  Alcotest.(check (list string)) "verify stage absent"
    [ "place"; "route"; "extract"; "analyse" ]
    (T.Summary.stage_names r.Ccdac.Flow.telemetry)

let test_flow_metrics_recorded () =
  let r = Ccdac.Flow.run ~bits:6 Ccplace.Style.Spiral in
  let m = r.Ccdac.Flow.telemetry.T.Summary.metrics in
  Alcotest.(check int) "one run" 1 (T.Metrics.counter m "flow/runs_total");
  Alcotest.(check (option (float 1e-9)))
    "via gauge matches the routed layout"
    (Some
       (float_of_int (List.length r.Ccdac.Flow.layout.Ccroute.Layout.vias)))
    (T.Metrics.gauge m "route/vias");
  (* per-capacitor extraction series exist for C0..C6 at 6 bits *)
  List.iter
    (fun cap ->
       let label = Printf.sprintf "C%d" cap in
       Alcotest.(check bool) (label ^ " via_cuts present") true
         (Option.is_some (T.Metrics.gauge ~label m "extract/via_cuts")))
    [ 0; 1; 6 ];
  (* one RC tree per net, built and solved in extract only *)
  Alcotest.(check int) "one Elmore solve per net" 7
    (T.Metrics.counter m "rcnet/elmore_solves_total");
  Alcotest.(check bool) "verify rules audited" true
    (T.Metrics.counter ~label:"layout" m "verify/checks_total" > 0)

let test_signoff_gate_builds_no_tree () =
  (* the verify and LVS gates of place_route read each net's RC model
     topology; no tree is built, so none is solved *)
  let _, m =
    T.Metrics.collect (fun () ->
        Ccdac.Flow.place_route ~verify:true ~bits:6 Ccplace.Style.Spiral)
  in
  Alcotest.(check bool) "the LVS gate ran" true
    (T.Metrics.gauge m "lvs/shapes" <> None);
  Alcotest.(check int) "no Elmore solve" 0
    (T.Metrics.counter m "rcnet/elmore_solves_total")

let test_summary_empty_placeholder () =
  Alcotest.(check (list string)) "no stages" []
    (T.Summary.stage_names T.Summary.empty);
  Alcotest.(check (float 1e-12)) "no runtime" 0.
    (T.Summary.place_route_seconds T.Summary.empty)

let () =
  Alcotest.run "telemetry"
    [ ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "units" `Quick test_clock_units ] );
      ( "span",
        [ Alcotest.test_case "inactive fast path" `Quick
            test_span_inactive_fast_path;
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "sink streaming" `Quick test_span_sink_streaming ] );
      ( "metrics",
        [ Alcotest.test_case "noop without scope" `Quick
            test_metrics_noop_without_scope;
          Alcotest.test_case "counter and gauge" `Quick
            test_metrics_counter_gauge;
          Alcotest.test_case "unknown id raises" `Quick
            test_metrics_unknown_id_raises;
          Alcotest.test_case "histogram bucket edges" `Quick
            test_metrics_histogram_edges;
          Alcotest.test_case "nested scopes aggregate" `Quick
            test_metrics_nested_scopes_aggregate ] );
      ( "registry",
        [ Alcotest.test_case "catalogue" `Quick test_registry_catalogue ] );
      ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors ] );
      ( "chrome-trace",
        [ Alcotest.test_case "file format" `Quick test_chrome_trace_file;
          Alcotest.test_case "heap counters" `Quick
            test_chrome_trace_heap_counters ] );
      ( "flow",
        [ Alcotest.test_case "summary stages" `Quick test_flow_summary_stages;
          Alcotest.test_case "elapsed = place + route" `Quick
            test_flow_elapsed_is_place_plus_route;
          Alcotest.test_case "verify stage optional" `Quick
            test_flow_no_verify_stage_when_disabled;
          Alcotest.test_case "metrics recorded" `Quick
            test_flow_metrics_recorded;
          Alcotest.test_case "signoff gate builds no RC tree" `Quick
            test_signoff_gate_builds_no_tree;
          Alcotest.test_case "empty placeholder" `Quick
            test_summary_empty_placeholder ] ) ]
