(* Miscellaneous behaviours not covered by the per-module suites:
   pretty-printers, small accessors, and defensive error paths. *)

let tech = Tech.Process.finfet_12nm

let fmt_to_string pp v = Format.asprintf "%a" pp v

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  m = 0 || scan 0

(* --- pretty printers --- *)

let test_layer_pp () =
  Alcotest.(check string) "M1" "M1" (fmt_to_string Tech.Layer.pp_name Tech.Layer.M1);
  Alcotest.(check string) "M3" "M3" (fmt_to_string Tech.Layer.pp_name Tech.Layer.M3)

let test_process_pp () =
  let s = fmt_to_string Tech.Process.pp tech in
  Alcotest.(check bool) "names process" true (contains s "finfet");
  Alcotest.(check bool) "mentions Cu" true (contains s "Cu=5.00")

let test_axis_pp () =
  Alcotest.(check string) "horizontal" "horizontal"
    (Geom.Axis.to_string Geom.Axis.Horizontal)

let test_sizing_pp () =
  let s =
    fmt_to_string Ccgrid.Sizing.pp (Ccgrid.Sizing.compute ~total_units:512)
  in
  Alcotest.(check string) "formats" "23x23 (+17 dummies)" s

let test_placement_pp () =
  let p = Ccplace.Spiral.place ~bits:6 in
  let s = fmt_to_string Ccgrid.Placement.pp p in
  Alcotest.(check bool) "mentions style" true (contains s "spiral");
  Alcotest.(check bool) "mentions dims" true (contains s "8x8")

let test_cell_pp () =
  Alcotest.(check string) "cell" "(2, 5)"
    (fmt_to_string Ccgrid.Cell.pp (Ccgrid.Cell.make ~row:2 ~col:5))

let test_group_pp () =
  let groups = Ccroute.Group.of_placement (Ccplace.Spiral.place ~bits:6) in
  if Ccroute.Group.count groups = 0 then Alcotest.fail "no groups";
  let s = fmt_to_string (Ccroute.Group.pp groups) 0 in
  Alcotest.(check bool) "mentions cap" true (contains s "C_0")

let test_style_pp () =
  Alcotest.(check string) "spiral" "spiral"
    (fmt_to_string Ccplace.Style.pp Ccplace.Style.Spiral);
  Alcotest.(check bool) "style equal" true
    (Ccplace.Style.equal Ccplace.Style.Rowwise Ccplace.Style.Rowwise);
  Alcotest.(check bool) "style differ" false
    (Ccplace.Style.equal Ccplace.Style.Rowwise Ccplace.Style.Spiral)

(* --- render on a doubled array --- *)

let test_render_doubled_chessboard () =
  let p = Ccplace.Chessboard.place ~bits:7 in
  let s = Ccgrid.Render.ascii p in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  Alcotest.(check int) "16 rows" 16 (List.length lines)

(* --- dispersion bounds --- *)

let test_dispersion_overall_bounded () =
  List.iter
    (fun style ->
       let p = Ccplace.Style.place ~bits:8 style in
       let d = Ccgrid.Dispersion.overall tech p in
       Alcotest.(check bool)
         (Printf.sprintf "%s in (0, 1.6)" (Ccplace.Style.name style))
         true
         (d > 0. && d < 1.6))
    [ Ccplace.Style.Spiral; Ccplace.Style.Chessboard; Ccplace.Style.Rowwise ]

(* --- defensive error paths --- *)

let test_layout_net_bad_id () =
  let layout = Ccroute.Layout.route tech (Ccplace.Spiral.place ~bits:6) in
  Alcotest.(check bool) "bad id" true
    (try ignore (Ccroute.Layout.net layout 99); false
     with Invalid_argument _ -> true)

let test_weights_scale_bad_factor () =
  Alcotest.(check bool) "factor 0" true
    (try ignore (Ccgrid.Weights.scale [| 1; 2 |] ~by:0); false
     with Invalid_argument _ -> true)

let test_sizing_bad_total () =
  Alcotest.(check bool) "zero units" true
    (try ignore (Ccgrid.Sizing.compute ~total_units:0); false
     with Invalid_argument _ -> true)

let test_interleave_bad_weight () =
  Alcotest.(check bool) "weight 0" true
    (try ignore (Ccplace.Interleave.schedule [ ("a", 0) ]); false
     with Invalid_argument _ -> true)

let test_transfer_bit_bad_k () =
  Alcotest.(check bool) "k 0" true
    (try ignore (Dacmodel.Transfer.bit ~code:3 0); false
     with Invalid_argument _ -> true)

let test_speed_bad_bits () =
  Alcotest.(check bool) "bits 0" true
    (try ignore (Dacmodel.Speed.f3db_mhz ~bits:0 ~tau_fs:1.); false
     with Invalid_argument _ -> true)

let test_improvement_bad_base () =
  Alcotest.(check bool) "base 0" true
    (try ignore (Dacmodel.Speed.improvement_factor ~base_mhz:0. ~mhz:1.); false
     with Invalid_argument _ -> true)

let test_transfer_perturbed_bad_denominator () =
  Alcotest.(check bool) "C_T + dC_T <= 0" true
    (try
       ignore
         (Dacmodel.Transfer.perturbed ~vref:1. ~c_on:1. ~delta_on:0. ~c_t:1.
            ~delta_t:(-2.));
       false
     with Invalid_argument _ -> true)

let test_placement_cells_of_bad_id () =
  let p = Ccplace.Spiral.place ~bits:6 in
  Alcotest.(check bool) "bad id" true
    (try ignore (Ccgrid.Placement.cells_of p 7); false
     with Invalid_argument _ -> true)

(* --- cross-module consistency --- *)

let test_layout_cell_center_matches_arrays () =
  let layout = Ccroute.Layout.route tech (Ccplace.Spiral.place ~bits:6) in
  let c = Ccgrid.Cell.make ~row:2 ~col:5 in
  let p = Ccroute.Layout.cell_center layout c in
  Alcotest.(check (float 1e-12)) "x" layout.Ccroute.Layout.col_x.(5) p.Geom.Point.x;
  Alcotest.(check (float 1e-12)) "y" layout.Ccroute.Layout.row_y.(2) p.Geom.Point.y

let test_wire_length_axis_aligned () =
  let w =
    { Ccroute.Layout.w_cap = 0; w_kind = Ccroute.Layout.Trunk;
      w_layer = Tech.Layer.M3; w_ax = 1.; w_ay = 2.; w_bx = 1.; w_by = 7.;
      w_p = 1 }
  in
  Alcotest.(check (float 1e-12)) "length" 5. (Ccroute.Layout.wire_length w)

let test_flow_theta_changes_little_for_cc () =
  (* exact CC placements barely react to the gradient angle *)
  let a = Ccdac.Flow.run ~bits:6 ~theta:0. Ccplace.Style.Spiral in
  let b = Ccdac.Flow.run ~bits:6 ~theta:1.2 Ccplace.Style.Spiral in
  Alcotest.(check bool) "small angle sensitivity" true
    (Float.abs (a.Ccdac.Flow.max_inl -. b.Ccdac.Flow.max_inl) < 0.01)

let test_sweep_row_respects_tech () =
  let rows = Ccdac.Sweep.row ~tech:Tech.Process.bulk_legacy ~bits:6 () in
  List.iter
    (fun (r : Ccdac.Flow.result) ->
       Alcotest.(check string) "tech carried" "bulk-legacy"
         r.Ccdac.Flow.tech.Tech.Process.name)
    rows

(* --- documentation catalogues --- *)

(* The rows of every markdown table in [path] whose header row is
   [header], as trimmed cells with any backticks around a cell dropped. *)
let doc_table_rows path ~header =
  let cells line =
    let line = String.trim line in
    let n = String.length line in
    if n < 2 || line.[0] <> '|' || line.[n - 1] <> '|' then None
    else
      Some
        (List.map
           (fun c ->
              let c = String.trim c in
              let m = String.length c in
              if m >= 2 && c.[0] = '`' && c.[m - 1] = '`' then
                String.sub c 1 (m - 2)
              else c)
           (String.split_on_char '|' (String.sub line 1 (n - 2))))
  in
  let rec scan acc = function
    | [] -> List.rev acc
    | line :: rest when cells line = Some header ->
      (* skip the separator row, then read rows up to the table's end *)
      table acc (List.tl rest)
    | _ :: rest -> scan acc rest
  and table acc = function
    | line :: rest -> (
        match cells line with
        | Some row -> table (row :: acc) rest
        | None -> scan acc rest)
    | [] -> List.rev acc
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n' |> scan []

(* The [(id, severity)] of every "- **family/name** (severity)" bullet
   in [path]. *)
let doc_rule_bullets path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
      Scanf.sscanf_opt line "- **%s@** (%s@)" (fun id sev -> (id, sev)))
  |> List.filter (fun (id, _) ->
      String.contains id '/'
      && String.for_all
           (fun c -> c = '/' || c = '-' || ('a' <= c && c <= 'z')) id)

(* docs/TELEMETRY.md's metric table, docs/VERIFY.md's rule tables,
   docs/QOR.md's policy table and docs/SRCLINT.md's rule catalogue copy
   their registries by hand; a kind cell reads e.g. "histogram (...)". *)
let test_doc_catalogues_match_registries () =
  let sorted l = List.sort compare l in
  let documented_metrics =
    doc_table_rows "../docs/TELEMETRY.md"
      ~header:[ "id"; "kind"; "stage"; "unit"; "cardinality"; "contract" ]
    |> List.map (function
      | id :: kind :: stage :: _ ->
        (id, List.hd (String.split_on_char ' ' kind), stage)
      | _ -> Alcotest.fail "short TELEMETRY.md metric row")
    |> sorted
  in
  let registered_metrics =
    List.map
      (fun (m : Telemetry.Metric.t) ->
         ( m.Telemetry.Metric.id,
           Telemetry.Metric.kind_name m.Telemetry.Metric.kind,
           m.Telemetry.Metric.stage ))
      Telemetry.Registry.all
    |> sorted
  in
  Alcotest.(check (list (triple string string string)))
    "TELEMETRY.md metric (id, kind, stage)" registered_metrics
    documented_metrics;
  let documented_rules =
    doc_table_rows "../docs/VERIFY.md" ~header:[ "id"; "severity"; "contract" ]
    |> List.map (function
      | id :: severity :: _ -> (id, severity)
      | _ -> Alcotest.fail "short VERIFY.md rule row")
    |> sorted
  in
  let registered_rules =
    List.map
      (fun (r : Diag.rule) -> (r.Diag.id, Diag.severity_name r.Diag.severity))
      Verify.Registry.all.Diag.rules
    |> sorted
  in
  Alcotest.(check (list (pair string string)))
    "VERIFY.md rule (id, severity)" registered_rules documented_rules;
  let documented_policies =
    doc_table_rows "../docs/QOR.md"
      ~header:[ "verdict id"; "kind"; "tolerance"; "sense"; "severity" ]
    |> List.map (function
      | [ id; _; _; _; severity ] -> (id, severity)
      | _ -> Alcotest.fail "short QOR.md policy row")
    |> sorted
  in
  let catalogued_policies =
    List.map
      (fun (p : Qor.Policy.t) ->
         (p.Qor.Policy.id, Diag.severity_name p.Qor.Policy.severity))
      Qor.Policy.catalogue
    |> sorted
  in
  Alcotest.(check (list (pair string string)))
    "QOR.md policy (verdict id, severity)" catalogued_policies
    documented_policies;
  (* SRCLINT.md bullets the syntactic and meta rules and names the typed
     ones in prose: every bullet must be a registered rule with that
     severity, and every registered id must appear somewhere. *)
  let srclint_doc = "../docs/SRCLINT.md" in
  let registered_srclint =
    List.map
      (fun (r : Diag.rule) -> (r.Diag.id, Diag.severity_name r.Diag.severity))
      Srclint.Registry.all.Diag.rules
  in
  List.iter
    (fun (id, severity) ->
       Alcotest.(check (option string))
         ("SRCLINT.md bullet " ^ id ^ " (severity)")
         (List.assoc_opt id registered_srclint) (Some severity))
    (doc_rule_bullets srclint_doc);
  let text = In_channel.with_open_text srclint_doc In_channel.input_all in
  Alcotest.(check (list string)) "SRCLINT.md names every registered rule" []
    (List.filter
       (fun id ->
          not (contains text ("`" ^ id ^ "`") || contains text ("**" ^ id ^ "**")))
       (Diag.ids Srclint.Registry.all))

(* docs/TELEMETRY.md's "Memory at 10 and 12 bits" table, re-measured:
   every per-stage MB cell and both totals of the spiral flow at 10 and
   12 bits, to the two decimals the table prints.  Allocation repeats
   exactly from run to run; peak heap and major collections do not, so
   the table leaves them out.  The flows run inside a metric scope, as
   under [ccgen profile --mem], whose matrix scope receives a copy of
   every metric write: without it [extract] reads 0.01 MB less at both
   sizes. *)
let test_doc_memory_table () =
  let doc = "../docs/TELEMETRY.md" in
  let measured bits =
    let r, _ =
      Telemetry.Memory.with_enabled true (fun () ->
          Telemetry.Metrics.collect (fun () ->
              Ccdac.Flow.run ~bits Ccplace.Style.Spiral))
    in
    r.Ccdac.Flow.telemetry
  in
  let b10 = measured 10 and b12 = measured 12 in
  let mb t stage =
    match Telemetry.Summary.stage_alloc_mb t stage with
    | Some v -> Printf.sprintf "%.2f" v
    | None -> Alcotest.failf "stage %s not sampled" stage
  in
  let rows =
    doc_table_rows doc ~header:[ "stage"; "b10 MB"; "b12 MB"; "×MB" ]
  in
  Alcotest.(check (list string)) "TELEMETRY.md memory table stages"
    [ "place"; "route"; "verify"; "lvs"; "extract"; "analyse" ]
    (List.map List.hd rows);
  List.iter
    (function
      | [ stage; m10; m12; _ ] ->
        Alcotest.(check (pair string string))
          ("TELEMETRY.md memory row " ^ stage) (mb b10 stage, mb b12 stage)
          (m10, m12)
      | _ -> Alcotest.fail "short TELEMETRY.md memory row")
    rows;
  let total t =
    match Telemetry.Summary.total_memory t with
    | Some d -> Printf.sprintf "%.2f" (Telemetry.Memory.allocated_mb d)
    | None -> Alcotest.fail "flow not sampled"
  in
  let documented_totals =
    In_channel.with_open_text doc In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
        Scanf.sscanf_opt line "Total: %s@ → %s@ MB" (fun a b -> (a, b)))
  in
  Alcotest.(check (option (pair string string))) "TELEMETRY.md memory totals"
    (Some (total b10, total b12)) documented_totals

let () =
  Alcotest.run "misc"
    [ ( "printers",
        [ Alcotest.test_case "layer" `Quick test_layer_pp;
          Alcotest.test_case "process" `Quick test_process_pp;
          Alcotest.test_case "axis" `Quick test_axis_pp;
          Alcotest.test_case "sizing" `Quick test_sizing_pp;
          Alcotest.test_case "placement" `Quick test_placement_pp;
          Alcotest.test_case "cell" `Quick test_cell_pp;
          Alcotest.test_case "group" `Quick test_group_pp;
          Alcotest.test_case "style" `Quick test_style_pp ] );
      ( "rendering",
        [ Alcotest.test_case "doubled chessboard" `Quick test_render_doubled_chessboard;
          Alcotest.test_case "dispersion bounds" `Quick test_dispersion_overall_bounded ] );
      ( "error paths",
        [ Alcotest.test_case "layout net" `Quick test_layout_net_bad_id;
          Alcotest.test_case "weights scale" `Quick test_weights_scale_bad_factor;
          Alcotest.test_case "sizing" `Quick test_sizing_bad_total;
          Alcotest.test_case "interleave" `Quick test_interleave_bad_weight;
          Alcotest.test_case "transfer bit" `Quick test_transfer_bit_bad_k;
          Alcotest.test_case "speed bits" `Quick test_speed_bad_bits;
          Alcotest.test_case "improvement base" `Quick test_improvement_bad_base;
          Alcotest.test_case "perturbed denominator" `Quick test_transfer_perturbed_bad_denominator;
          Alcotest.test_case "cells_of" `Quick test_placement_cells_of_bad_id ] );
      ( "consistency",
        [ Alcotest.test_case "cell center" `Quick test_layout_cell_center_matches_arrays;
          Alcotest.test_case "wire length" `Quick test_wire_length_axis_aligned;
          Alcotest.test_case "theta insensitivity" `Quick test_flow_theta_changes_little_for_cc;
          Alcotest.test_case "sweep tech" `Quick test_sweep_row_respects_tech ] );
      ( "docs",
        [ Alcotest.test_case "catalogues match registries" `Quick
            test_doc_catalogues_match_registries;
          Alcotest.test_case "memory table" `Quick test_doc_memory_table ] ) ]
