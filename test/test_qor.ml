(* Tests for the QoR observability layer: records and their JSONL
   round-trip (including schema skew and the committed ledger and
   baseline), the ledger's advisory append lock under concurrent writer
   processes, the release version against CHANGELOG.md, the tolerance
   policies, the regression sentinel end-to-end, per-element attribution
   invariants, and histogram quantiles.

   The ledger writers are real child processes: the test re-execs its
   own binary with a sentinel argv (forking an OCaml 5 runtime is unsafe
   once domains exist). *)

let tech = Tech.Process.finfet_12nm

(* child mode: [ledger-child PATH COUNT] appends COUNT records, then
   exits before Alcotest runs *)
let () =
  match Array.to_list Sys.argv with
  | _ :: "ledger-child" :: path :: count :: _ ->
    let record =
      Qor.Record.of_result (Ccdac.Flow.run ~tech ~bits:2 Ccplace.Style.Spiral)
    in
    for _ = 1 to int_of_string count do
      Qor.Ledger.append ~path record
    done;
    exit 0
  | _ -> ()

(* one shared flow result; every QoR artefact derives from it *)
let result = lazy (Ccdac.Flow.run ~tech ~bits:6 Ccplace.Style.Spiral)
let record = lazy (Qor.Record.of_result ~repeat:2 (Lazy.force result))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  m = 0 || scan 0

let temp_path suffix =
  let path = Filename.temp_file "qor_test" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* --- records --- *)

let check_float name a b = Alcotest.(check (float 1e-9)) name a b

let test_record_fields () =
  let r = Lazy.force record in
  Alcotest.(check int) "schema version" Qor.Record.schema_version
    r.Qor.Record.schema_version;
  Alcotest.(check string) "label" "spiral b6" r.Qor.Record.label;
  Alcotest.(check int) "repeat" 2 r.Qor.Record.repeat;
  Alcotest.(check bool) "stages recorded" true
    (List.mem_assoc "place" r.Qor.Record.stage_s
     && List.mem_assoc "route" r.Qor.Record.stage_s);
  Alcotest.(check bool) "hash is 16 hex digits" true
    (String.length r.Qor.Record.tech_hash = 16);
  (* a completed flow fired no error rules, but the sets are recorded *)
  Alcotest.(check bool) "via cuts positive" true (r.Qor.Record.via_cuts > 0)

let test_tech_hash_distinguishes () =
  let a = Qor.Record.tech_hash Tech.Process.finfet_12nm in
  let b = Qor.Record.tech_hash Tech.Process.bulk_legacy in
  Alcotest.(check bool) "different processes, different hashes" true (a <> b);
  Alcotest.(check string) "deterministic" a
    (Qor.Record.tech_hash Tech.Process.finfet_12nm)

let test_record_json_roundtrip () =
  let r = Lazy.force record in
  match Qor.Record.of_json (Qor.Record.to_json r) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok r' ->
    Alcotest.(check string) "label" r.Qor.Record.label r'.Qor.Record.label;
    Alcotest.(check string) "style" r.Qor.Record.style r'.Qor.Record.style;
    Alcotest.(check int) "bits" r.Qor.Record.bits r'.Qor.Record.bits;
    Alcotest.(check string) "tech hash" r.Qor.Record.tech_hash
      r'.Qor.Record.tech_hash;
    Alcotest.(check int) "repeat" r.Qor.Record.repeat r'.Qor.Record.repeat;
    check_float "f3db" r.Qor.Record.f3db_mhz r'.Qor.Record.f3db_mhz;
    check_float "inl" r.Qor.Record.max_inl_lsb r'.Qor.Record.max_inl_lsb;
    Alcotest.(check int) "via cuts" r.Qor.Record.via_cuts
      r'.Qor.Record.via_cuts;
    Alcotest.(check (list string)) "verify rules" r.Qor.Record.verify_rules
      r'.Qor.Record.verify_rules;
    Alcotest.(check int) "stage count"
      (List.length r.Qor.Record.stage_s)
      (List.length r'.Qor.Record.stage_s)

let record_text r = Telemetry.Json.to_string (Qor.Record.to_json r)

(* The keys older schemas wrote and this one no longer carries: the five
   serve_* figures of a service-decorated row, the scheduler queue depth,
   the worker count and Monte-Carlo speedup probe, and the scaling-probe
   decoration. *)
let retired_keys =
  [ ("serve_requests", Telemetry.Json.Num 10_000.);
    ("serve_throughput_rps", Telemetry.Json.Num 25000.);
    ("serve_p50_ms", Telemetry.Json.Num 1.5);
    ("serve_p95_ms", Telemetry.Json.Num 2.5);
    ("serve_hit_rate", Telemetry.Json.Num 0.99);
    ("sched_queue_depth_max", Telemetry.Json.Num 5.);
    ("jobs", Telemetry.Json.Num 4.);
    ("par_speedup", Telemetry.Json.Num 0.3995);
    ( "stage_exponent",
      Telemetry.Json.Obj
        [ ("place", Telemetry.Json.Num 1.1); ("total", Telemetry.Json.Num 1.2) ]
    );
    ("sched_utilization", Telemetry.Json.Num 0.7);
    ("sched_caller_blocked_s", Telemetry.Json.Num 0.01) ]

(* [r] as an older schema wrote it: its fields plus every retired key *)
let with_retired_keys r =
  match Qor.Record.to_json r with
  | Telemetry.Json.Obj fields -> Telemetry.Json.Obj (fields @ retired_keys)
  | _ -> Alcotest.fail "a record serialises to an object"

(* [line] names at least one retired key *)
let has_retired_key line =
  List.exists
    (fun (k, _) -> contains line (Printf.sprintf "%S:" k))
    retired_keys

(* A record written by an older (or newer) schema parses: missing
   scalars decay to NaN, counts to 0, sets to [] — never an exception. *)
let test_record_schema_skew () =
  let old =
    Telemetry.Json.Obj
      [ ("schema_version", Telemetry.Json.Num 99.);
        ("style", Telemetry.Json.Str "spiral");
        ("bits", Telemetry.Json.Num 8.) ]
  in
  (match Qor.Record.of_json old with
   | Error e -> Alcotest.failf "skewed record rejected: %s" e
   | Ok r ->
     Alcotest.(check int) "future version preserved" 99
       r.Qor.Record.schema_version;
     Alcotest.(check string) "label derived" "spiral b8" r.Qor.Record.label;
     Alcotest.(check bool) "missing scalar is NaN" true
       (Float.is_nan r.Qor.Record.f3db_mhz);
     Alcotest.(check int) "missing count is 0" 0 r.Qor.Record.via_cuts;
     Alcotest.(check (list string)) "missing set is []" []
       r.Qor.Record.verify_rules);
  (* the keys this schema no longer carries: a row that has them parses
     to the same record as one without them *)
  let r = Lazy.force record in
  (match Qor.Record.of_json (with_retired_keys r) with
   | Error e -> Alcotest.failf "row with retired keys rejected: %s" e
   | Ok r' ->
     Alcotest.(check string) "retired keys ignored" (record_text r)
       (record_text r');
     Alcotest.(check bool) "not written back" false
       (has_retired_key (record_text r')));
  match Qor.Record.of_json (Telemetry.Json.Str "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-object record should not parse"

(* --- ledger --- *)

let test_ledger_roundtrip () =
  let path = temp_path ".jsonl" in
  let r = Lazy.force record in
  let r' = { r with Qor.Record.repeat = 5 } in
  Qor.Ledger.append ~path r;
  (* corruption in the middle is skipped, not fatal *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "this is not JSON\n";
  close_out oc;
  Qor.Ledger.append ~path r';
  let records, complaints = Qor.Ledger.load ~path in
  Alcotest.(check int) "two records survive" 2 (List.length records);
  Alcotest.(check int) "one complaint" 1 (List.length complaints);
  let latest = Qor.Ledger.latest_by_label records in
  Alcotest.(check int) "one label" 1 (List.length latest);
  Alcotest.(check int) "latest wins" 5 (List.hd latest).Qor.Record.repeat

let test_baseline_roundtrip () =
  let path = temp_path ".json" in
  let r = Lazy.force record in
  Qor.Baseline.save ~path [ r ];
  (match Qor.Baseline.load ~path with
   | Error e -> Alcotest.failf "baseline load failed: %s" e
   | Ok records ->
     Alcotest.(check (list string)) "labels" [ r.Qor.Record.label ]
       (List.map (fun (x : Qor.Record.t) -> x.Qor.Record.label) records));
  (* a bare JSONL ledger also loads as a baseline *)
  let ledger = temp_path ".jsonl" in
  Qor.Ledger.append ~path:ledger r;
  Qor.Ledger.append ~path:ledger { r with Qor.Record.repeat = 9 };
  (match Qor.Baseline.load ~path:ledger with
   | Error e -> Alcotest.failf "ledger-as-baseline failed: %s" e
   | Ok records ->
     Alcotest.(check int) "deduped by label" 1 (List.length records);
     Alcotest.(check int) "latest record" 9
       (List.hd records).Qor.Record.repeat);
  match Qor.Baseline.load ~path:"/nonexistent/baseline.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing baseline should be an Error"

(* Advisory lock: 4 writer processes x 20 appends interleave whole
   lines, never fragments. *)
let test_ledger_concurrent_appends () =
  let path = Filename.temp_file "qor_ledger" ".jsonl" in
  Sys.remove path;
  let writers = 4 and per_writer = 20 in
  let exe = Sys.executable_name in
  let pids =
    List.init writers (fun _ ->
        Unix.create_process exe
          [| exe; "ledger-child"; path; string_of_int per_writer |]
          Unix.stdin Unix.stdout Unix.stderr)
  in
  List.iter
    (fun pid ->
       match Unix.waitpid [] pid with
       | _, Unix.WEXITED code -> Alcotest.(check int) "writer exit" 0 code
       | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
         Alcotest.failf "writer stopped by signal %d" s)
    pids;
  let records, complaints = Qor.Ledger.load ~path in
  Sys.remove path;
  Alcotest.(check (list string)) "no torn lines" [] complaints;
  Alcotest.(check int) "every append landed" (writers * per_writer)
    (List.length records)

(* A row an older schema decorated (service figures, speedup probe,
   scaling probe) survives the ledger: it loads without complaint to the
   record it decorated, and appending that record back writes the same
   row minus the retired keys. *)
let test_ledger_serve_row_roundtrip () =
  let path = temp_path ".jsonl" in
  let r = Lazy.force record in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Telemetry.Json.to_string (with_retired_keys r) ^ "\n"));
  let records, complaints = Qor.Ledger.load ~path in
  Alcotest.(check (list string)) "clean parse" [] complaints;
  match records with
  | [ back ] ->
    Alcotest.(check string) "decorated record" (record_text r)
      (record_text back);
    Qor.Ledger.append ~path back;
    let records, complaints = Qor.Ledger.load ~path in
    Alcotest.(check (list string)) "clean reparse" [] complaints;
    Alcotest.(check (list string)) "rows agree"
      [ record_text r; record_text r ]
      (List.map record_text records);
    let lines = In_channel.with_open_text path In_channel.input_lines in
    Alcotest.(check (list bool)) "retired keys not written back"
      [ true; false ]
      (List.map has_retired_key lines)
  | rs -> Alcotest.failf "expected one record, got %d" (List.length rs)

(* The committed QoR files load as they stand, rows written by older
   schemas (retired keys included) among them: one record per ledger
   line, one per baseline entry, no complaint. *)
let test_committed_files () =
  let ledger = "../qor_ledger.jsonl" in
  let lines =
    In_channel.with_open_text ledger In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  let records, complaints = Qor.Ledger.load ~path:ledger in
  Alcotest.(check (list string)) "ledger complaints" [] complaints;
  Alcotest.(check int) "one record per ledger line" (List.length lines)
    (List.length records);
  Alcotest.(check bool) "ledger has rows with retired keys" true
    (List.exists (fun l -> contains l "\"serve_requests\"") lines);
  Alcotest.(check bool) "ledger has rows with a queue depth" true
    (List.exists (fun l -> contains l "\"sched_queue_depth_max\"") lines);
  Alcotest.(check bool) "ledger has rows with a speedup probe" true
    (List.exists (fun l -> contains l "\"par_speedup\"") lines);
  Alcotest.(check bool) "ledger has rows with growth exponents" true
    (List.exists (fun l -> contains l "\"stage_exponent\"") lines);
  match Qor.Baseline.load ~path:"../BENCH_baseline.json" with
  | Error e -> Alcotest.failf "committed baseline: %s" e
  | Ok records ->
    (* 4 styles x {6, 8} bits *)
    Alcotest.(check int) "baseline records" 8 (List.length records)

(* BENCH_flow.json's runs are QoR records: the median of 5 flow runs of
   each of the four methods at 6-10 bits, every stage timed, under the
   default (FinFET) process. *)
let test_bench_flow_records () =
  let doc =
    match
      Telemetry.Json.parse
        (In_channel.with_open_text "../BENCH_flow.json" In_channel.input_all)
    with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "BENCH_flow.json: %s" e
  in
  let runs =
    match
      Option.bind (Telemetry.Json.member "runs" doc) Telemetry.Json.to_list
    with
    | Some runs -> runs
    | None -> Alcotest.fail "BENCH_flow.json has no runs array"
  in
  let records =
    List.map
      (fun j ->
         match Qor.Record.of_json j with
         | Ok r -> r
         | Error e -> Alcotest.failf "BENCH_flow.json run: %s" e)
      runs
  in
  let expected_labels =
    List.concat_map
      (fun bits ->
         List.map
           (fun style -> Qor.Record.label ~style:(Ccplace.Style.name style) ~bits)
           [ Ccplace.Style.Rowwise; Ccplace.Style.Chessboard;
             Ccplace.Style.Spiral; Ccplace.Style.block_default ~bits ])
      [ 6; 7; 8; 9; 10 ]
  in
  Alcotest.(check (list string)) "labels" expected_labels
    (List.map (fun (r : Qor.Record.t) -> r.Qor.Record.label) records);
  let finfet = Qor.Record.tech_hash Tech.Process.finfet_12nm in
  List.iter
    (fun (r : Qor.Record.t) ->
       let l = r.Qor.Record.label in
       Alcotest.(check int) (l ^ " repeat") 5 r.Qor.Record.repeat;
       Alcotest.(check (list string)) (l ^ " stages")
         [ "place"; "route"; "verify"; "lvs"; "extract"; "analyse" ]
         (List.map fst r.Qor.Record.stage_s);
       Alcotest.(check string) (l ^ " tech hash") finfet r.Qor.Record.tech_hash)
    records

(* A record's rule sets are the ones the flow's gates returned: nothing
   is re-run, so a warning the result carries is what the record holds. *)
let test_record_rules_from_result () =
  let r = Lazy.force result in
  Alcotest.(check (list string)) "clean gates" []
    (Qor.Record.of_result r).Qor.Record.lvs_rules;
  let warned =
    { r with
      Ccdac.Flow.lvs_diagnostics =
        [ Diag.make Verify.Lvs_rules.r_dangling "hand-added" ] }
  in
  let record = Qor.Record.of_result warned in
  Alcotest.(check (list string)) "lvs rules" [ "lvs/dangling" ]
    record.Qor.Record.lvs_rules;
  Alcotest.(check (list string)) "verify rules" []
    record.Qor.Record.verify_rules

(* --- release version --- *)

(* The hand-bumped version constant names the newest CHANGELOG.md
   release: the first "## x.y.z" heading. *)
let test_version_matches_changelog () =
  let heading =
    In_channel.with_open_text "../CHANGELOG.md" In_channel.input_lines
    |> List.find_map (fun l ->
        if String.starts_with ~prefix:"## " l then
          match String.split_on_char ' ' l with
          | _ :: v :: _ -> Some v
          | _ -> None
        else None)
  in
  Alcotest.(check (option string)) "newest CHANGELOG release" heading
    (Some Qor.Provenance.changelog)

(* The core count survives the ledger; a row written before the field
   existed reads it as 0. *)
let test_provenance_cores () =
  let p = Qor.Provenance.capture () in
  Alcotest.(check int) "captured" (Domain.recommended_domain_count ())
    p.Qor.Provenance.cores;
  let back = Qor.Provenance.of_json (Qor.Provenance.to_json p) in
  Alcotest.(check int) "roundtrip" p.Qor.Provenance.cores
    back.Qor.Provenance.cores;
  let old =
    Telemetry.Json.Obj
      [ ("timestamp_s", Telemetry.Json.Num 1.7e9);
        ("host", Telemetry.Json.Str "ci");
        ("git_commit", Telemetry.Json.Null) ]
  in
  let old = Qor.Provenance.of_json old in
  Alcotest.(check int) "old row reads 0" 0 old.Qor.Provenance.cores;
  Alcotest.(check string) "old row keeps its host" "ci" old.Qor.Provenance.host

(* --- tolerance policies --- *)

let policy id =
  match Qor.Policy.find id with
  | Some p -> p
  | None -> Alcotest.failf "policy %s missing from catalogue" id

let verdict =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Qor.Policy.verdict_name v))
    ( = )

let judge p b c =
  fst
    (Qor.Policy.judge p ~baseline:(Qor.Policy.Scalar b)
       ~current:(Qor.Policy.Scalar c))

let test_policy_rel_thresholds () =
  let p = policy "qor/f3db_mhz" in
  (* tol 2%, Higher_better, inclusive threshold *)
  Alcotest.check verdict "exactly -2% is unchanged" Qor.Policy.Unchanged
    (judge p 1000. 980.);
  Alcotest.check verdict "past -2% regresses" Qor.Policy.Regressed
    (judge p 1000. 979.9);
  Alcotest.check verdict "exactly +2% is unchanged" Qor.Policy.Unchanged
    (judge p 1000. 1020.);
  Alcotest.check verdict "past +2% improves" Qor.Policy.Improved
    (judge p 1000. 1021.);
  Alcotest.check verdict "identical" Qor.Policy.Unchanged (judge p 1000. 1000.);
  (* allocation's 1 MB floor: two readings at or under it compare equal,
     and a microscopic baseline cannot inflate the denominator, which the
     floor stands in for, so 0.8 -> 1.05 MB reads +25% (at the tolerance)
     rather than +31% *)
  let p = policy "qor/alloc_mb_total" in
  Alcotest.check verdict "both under the floor" Qor.Policy.Unchanged
    (judge p 0.004 0.9);
  Alcotest.check verdict "floored denominator" Qor.Policy.Regressed
    (judge p 0.001 4.);
  Alcotest.check verdict "floored denominator at tolerance"
    Qor.Policy.Unchanged (judge p 0.8 1.05)

let test_policy_nan_guard () =
  let p = policy "qor/f3db_mhz" in
  Alcotest.check verdict "NaN current" Qor.Policy.Incomparable
    (judge p 1000. Float.nan);
  Alcotest.check verdict "NaN baseline" Qor.Policy.Incomparable
    (judge p Float.nan 1000.);
  let v, detail =
    Qor.Policy.judge p ~baseline:(Qor.Policy.Scalar Float.nan)
      ~current:(Qor.Policy.Scalar Float.nan)
  in
  Alcotest.check verdict "NaN both" Qor.Policy.Incomparable v;
  Alcotest.(check bool) "detail mentions NaN" true
    (contains detail "NaN")

let test_policy_abs () =
  let p = policy "qor/max_inl_lsb" in
  (* tol 0.005 LSB absolute, Lower_better *)
  Alcotest.check verdict "at tolerance" Qor.Policy.Unchanged
    (judge p 0.100 0.105);
  Alcotest.check verdict "past tolerance" Qor.Policy.Regressed
    (judge p 0.100 0.1051);
  Alcotest.check verdict "improvement" Qor.Policy.Improved
    (judge p 0.100 0.090)

let test_policy_exact () =
  let p = policy "qor/via_cuts" in
  let count n = Qor.Policy.Count n in
  Alcotest.check verdict "count match" Qor.Policy.Unchanged
    (fst (Qor.Policy.judge p ~baseline:(count 12) ~current:(count 12)));
  (* any drift regresses, even a decrease: the baseline must be blessed *)
  Alcotest.check verdict "count drift" Qor.Policy.Regressed
    (fst (Qor.Policy.judge p ~baseline:(count 12) ~current:(count 11)));
  let ps = policy "qor/verify_rules" in
  let set l = Qor.Policy.Set l in
  Alcotest.check verdict "set order irrelevant" Qor.Policy.Unchanged
    (fst
       (Qor.Policy.judge ps ~baseline:(set [ "b"; "a" ])
          ~current:(set [ "a"; "b"; "a" ])));
  let v, detail =
    Qor.Policy.judge ps ~baseline:(set [ "a"; "b" ])
      ~current:(set [ "a"; "c" ])
  in
  Alcotest.check verdict "set drift" Qor.Policy.Regressed v;
  Alcotest.(check bool) "names appeared ids" true
    (contains detail "appeared {c}");
  Alcotest.(check bool) "names vanished ids" true
    (contains detail "vanished {b}");
  (* shape mismatch is incomparable, not an exception *)
  Alcotest.check verdict "shape mismatch" Qor.Policy.Incomparable
    (fst
       (Qor.Policy.judge p ~baseline:(count 3)
          ~current:(Qor.Policy.Scalar 3.)))

(* --- the sentinel end-to-end --- *)

let finding_ids fs =
  List.map (fun (f : Qor.Compare.finding) -> f.Qor.Compare.policy.Qor.Policy.id)
    fs

let test_diff_identical_is_clean () =
  let r = Lazy.force record in
  let cmp = Qor.Compare.diff ~baseline:[ r ] ~current:[ r ] in
  Alcotest.(check string) "summary" "clean" (Qor.Compare.summary_line cmp);
  (match Qor.Compare.gate ~werror:true cmp with
   | Ok () -> ()
   | Error fs ->
     Alcotest.failf "identical diff failed the gate: %s"
       (String.concat ", " (finding_ids fs)));
  Alcotest.(check (list string)) "no warnings" [] cmp.Qor.Compare.warnings

(* the acceptance scenario: a seeded f3dB regression must fail the gate
   with a finding pinned to the qor/f3db_mhz verdict id *)
let test_diff_seeded_regression () =
  let r = Lazy.force record in
  let slower =
    { r with Qor.Record.f3db_mhz = r.Qor.Record.f3db_mhz *. 0.9 }
  in
  let cmp = Qor.Compare.diff ~baseline:[ r ] ~current:[ slower ] in
  match Qor.Compare.gate cmp with
  | Ok () -> Alcotest.fail "a -10% f3dB change must fail the gate"
  | Error fs ->
    Alcotest.(check (list string)) "pinned verdict id" [ "qor/f3db_mhz" ]
      (finding_ids fs);
    let f = List.hd fs in
    Alcotest.check verdict "regressed" Qor.Policy.Regressed
      f.Qor.Compare.verdict;
    Alcotest.(check string) "labelled" "spiral b6" f.Qor.Compare.label

let test_diff_werror_and_severity () =
  let r = Lazy.force record in
  let more_bends = { r with Qor.Record.bends = r.Qor.Record.bends + 1 } in
  let cmp = Qor.Compare.diff ~baseline:[ r ] ~current:[ more_bends ] in
  (* bends is Warning severity: passes by default, fails under --werror *)
  (match Qor.Compare.gate cmp with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "warning-severity drift failed a default gate");
  match Qor.Compare.gate ~werror:true cmp with
  | Ok () -> Alcotest.fail "--werror must fail on warning-severity drift"
  | Error fs ->
    Alcotest.(check (list string)) "bends named" [ "qor/bends" ]
      (finding_ids fs)

let test_diff_coverage_and_skew () =
  let r = Lazy.force record in
  (* a baseline configuration with no current record is incomparable *)
  let cmp = Qor.Compare.diff ~baseline:[ r ] ~current:[] in
  (match Qor.Compare.gate cmp with
   | Ok () -> Alcotest.fail "missing coverage must fail the gate"
   | Error fs ->
     Alcotest.(check (list string)) "coverage finding" [ "qor/coverage" ]
       (finding_ids fs));
  (* schema skew surfaces as a warning, not a failure by itself *)
  let skewed = { r with Qor.Record.schema_version = 2 } in
  let cmp = Qor.Compare.diff ~baseline:[ r ] ~current:[ skewed ] in
  Alcotest.(check bool) "skew warning" true
    (List.exists
       (fun w -> contains w "schema version skew")
       cmp.Qor.Compare.warnings);
  (* an extra current label is informational *)
  let extra = { r with Qor.Record.label = "spiral b9" } in
  let cmp = Qor.Compare.diff ~baseline:[ r ] ~current:[ r; extra ] in
  Alcotest.(check bool) "extra label noted" true
    (List.exists
       (fun w -> contains w "no baseline record")
       cmp.Qor.Compare.warnings)

let test_diff_json_shape () =
  let r = Lazy.force record in
  let slower =
    { r with Qor.Record.f3db_mhz = r.Qor.Record.f3db_mhz *. 0.9 }
  in
  let cmp = Qor.Compare.diff ~baseline:[ r ] ~current:[ slower ] in
  let j = Qor.Compare.to_json cmp in
  let member name =
    match Telemetry.Json.member name j with
    | Some v -> v
    | None -> Alcotest.failf "verdict JSON lacks %S" name
  in
  (match Telemetry.Json.member "regressed" (member "summary") with
   | Some (Telemetry.Json.Num n) ->
     Alcotest.(check (float 0.)) "one regression" 1. n
   | _ -> Alcotest.fail "summary.regressed missing");
  match member "findings" with
  | Telemetry.Json.Arr (_ :: _) -> ()
  | _ -> Alcotest.fail "findings array empty"

(* --- per-element attribution --- *)

let explain = lazy (Qor.Explain.of_result (Lazy.force result))

let test_explain_delay_sums () =
  let e = Lazy.force explain in
  let sum =
    List.fold_left
      (fun acc (d : Qor.Explain.delay_element) ->
         acc +. d.Qor.Explain.de_delay_fs)
      0. e.Qor.Explain.delay_elements
  in
  (* the decomposition is exact: elements sum to the reported delay *)
  Alcotest.(check bool) "sums to total within 1e-9" true
    (Float.abs (sum -. e.Qor.Explain.delay_total_fs)
     <= 1e-9 *. Float.max 1. (Float.abs e.Qor.Explain.delay_total_fs));
  check_float "total is the flow tau" e.Qor.Explain.tau_fs
    e.Qor.Explain.delay_total_fs;
  let shares =
    List.fold_left
      (fun acc (d : Qor.Explain.delay_element) -> acc +. d.Qor.Explain.de_share)
      0. e.Qor.Explain.delay_elements
  in
  check_float "shares sum to 1" 1. shares;
  Alcotest.(check bool) "every element charges capacitance" true
    (List.for_all
       (fun (d : Qor.Explain.delay_element) -> d.Qor.Explain.de_c_ff > 0.)
       e.Qor.Explain.delay_elements)

let test_explain_inl_sums () =
  let e = Lazy.force explain in
  let sum =
    List.fold_left
      (fun acc (i : Qor.Explain.inl_element) ->
         acc +. i.Qor.Explain.ie_total_lsb)
      0. e.Qor.Explain.inl_elements
  in
  Alcotest.(check bool) "sums to worst-code INL within 1e-9" true
    (Float.abs (sum -. e.Qor.Explain.inl_lsb) <= 1e-9);
  check_float "worst code magnitude is the flow max |INL|"
    e.Qor.Explain.max_inl_lsb
    (Float.abs e.Qor.Explain.inl_lsb);
  (* one element per capacitor (C_0 termination included) plus the
     top-plate-parasitic pseudo-element *)
  Alcotest.(check int) "element count" (e.Qor.Explain.bits + 2)
    (List.length e.Qor.Explain.inl_elements)

let test_explain_labels () =
  (* the docs/QOR.md example: every element of the worst-bit path of
     spiral 8-bit, root first *)
  let e =
    Qor.Explain.of_result (Ccdac.Flow.run ~tech ~bits:8 Ccplace.Style.Spiral)
  in
  Alcotest.(check (list string))
    "labels"
    ([ "driver via->trunk ch0"; "trunk M3 ch0 y0.00->1.40";
       "strap ch0->cell(0,0)"; "strap ch0->cell(0,0)" ]
     @ List.init 15 (fun i -> Printf.sprintf "plate (%d,0)<->(%d,0)" i (i + 1))
     @ List.init 15 (fun i ->
         Printf.sprintf "plate (15,%d)<->(15,%d)" i (i + 1)))
    (List.map
       (fun (d : Qor.Explain.delay_element) -> d.Qor.Explain.de_label)
       e.Qor.Explain.delay_elements)

let test_explain_renderings () =
  let e = Lazy.force explain in
  let txt = Qor.Explain.text ~top:3 e in
  Alcotest.(check bool) "text names the style" true
    (contains txt "spiral");
  Alcotest.(check bool) "text truncates to top" true
    (contains txt "more elements");
  match Telemetry.Json.parse (Telemetry.Json.to_string (Qor.Explain.to_json e)) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "explain JSON does not reparse: %s" msg

(* --- histogram quantiles (ccgen profile p50/p95) --- *)

let test_quantile () =
  let dist =
    Telemetry.Metrics.Dist
      { bounds = [| 1.; 2.; 4. |];
        counts = [| 0; 10; 0; 0 |];
        sum = 15.;
        total = 10 }
  in
  (* all mass in (1, 2]: quantiles interpolate inside that bucket *)
  (match Telemetry.Metrics.quantile dist 0.5 with
   | Some v -> check_float "p50 interpolates" 1.5 v
   | None -> Alcotest.fail "p50 missing");
  (match Telemetry.Metrics.quantile dist 1.0 with
   | Some v -> check_float "p100 is the bucket edge" 2. v
   | None -> Alcotest.fail "p100 missing");
  (* overflow mass clamps to the last declared bound *)
  let overflow =
    Telemetry.Metrics.Dist
      { bounds = [| 1.; 2.; 4. |];
        counts = [| 0; 0; 0; 5 |];
        sum = 50.;
        total = 5 }
  in
  (match Telemetry.Metrics.quantile overflow 0.95 with
   | Some v -> check_float "overflow clamps" 4. v
   | None -> Alcotest.fail "overflow quantile missing");
  Alcotest.(check (option (float 0.))) "counters have no quantiles" None
    (Telemetry.Metrics.quantile (Telemetry.Metrics.Count 3) 0.5);
  let empty =
    Telemetry.Metrics.Dist
      { bounds = [| 1. |]; counts = [| 0; 0 |]; sum = 0.; total = 0 }
  in
  Alcotest.(check (option (float 0.))) "empty histogram" None
    (Telemetry.Metrics.quantile empty 0.5);
  match Telemetry.Metrics.quantile dist 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q outside [0, 1] must raise"

(* Nearest-rank pin at small n: one observation per bucket, bounds
   1/2/5.  rank(p99) = 2.97 lands 0.97 into the (2, 5] bucket, so the
   boundary interpolation must yield exactly 2 + 3 * 0.97 = 4.91 — a
   p99 that collapsed onto p95 (or the last bound) would miss it. *)
let test_quantile_p99_small_n () =
  let dist =
    Telemetry.Metrics.Dist
      { bounds = [| 1.; 2.; 5. |];
        counts = [| 1; 1; 1; 0 |];
        sum = 6.;
        total = 3 }
  in
  let q p =
    match Telemetry.Metrics.quantile dist p with
    | Some v -> v
    | None -> Alcotest.failf "p%g missing" (100. *. p)
  in
  check_float "p99 interpolates in the top bucket" 4.91 (q 0.99);
  check_float "p50 stays put" 1.5 (q 0.5);
  Alcotest.(check bool) "quantiles are monotone" true
    (q 0.5 <= q 0.95 && q 0.95 <= q 0.99)

(* --- memory fields (Telemetry.Memory sampling) --- *)

let sampled_record =
  lazy
    (Telemetry.Memory.with_enabled true (fun () ->
         Qor.Record.of_result (Ccdac.Flow.run ~tech ~bits:6 Ccplace.Style.Spiral)))

let test_memory_record_roundtrip () =
  let r = Lazy.force sampled_record in
  Alcotest.(check bool) "allocation sampled" true
    (r.Qor.Record.alloc_mb_total > 0.);
  Alcotest.(check bool) "per-stage allocation sampled" true
    (List.mem_assoc "place" r.Qor.Record.stage_alloc_mb
     && List.mem_assoc "analyse" r.Qor.Record.stage_alloc_mb);
  match Qor.Record.of_json (Qor.Record.to_json r) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok r' ->
    check_float "alloc total survives" r.Qor.Record.alloc_mb_total
      r'.Qor.Record.alloc_mb_total;
    check_float "peak heap survives" r.Qor.Record.peak_heap_mb
      r'.Qor.Record.peak_heap_mb;
    Alcotest.(check int) "major GCs survive" r.Qor.Record.major_collections
      r'.Qor.Record.major_collections;
    Alcotest.(check int) "stage table survives"
      (List.length r.Qor.Record.stage_alloc_mb)
      (List.length r'.Qor.Record.stage_alloc_mb)

(* A sampled baseline against an unsampled current (or vice versa) skips
   the memory metrics instead of failing them incomparable — old ledgers
   stay diffable after this schema addition. *)
let test_memory_compat_with_unsampled () =
  let r = Lazy.force sampled_record in
  let unsampled =
    { r with
      Qor.Record.stage_alloc_mb = [];
      alloc_mb_total = Float.nan;
      peak_heap_mb = Float.nan;
      major_collections = 0 }
  in
  let check_clean ~baseline ~current =
    let cmp = Qor.Compare.diff ~baseline:[ baseline ] ~current:[ current ] in
    match Qor.Compare.gate ~werror:true cmp with
    | Ok () -> ()
    | Error fs ->
      Alcotest.failf "mixed-sampling diff failed the gate: %s"
        (String.concat ", " (finding_ids fs))
  in
  check_clean ~baseline:r ~current:unsampled;
  check_clean ~baseline:unsampled ~current:r

(* the memscale acceptance scenario: a doubled allocation total is a
   Warning-severity regression pinned to qor/alloc_mb_total *)
let test_diff_seeded_alloc_regression () =
  let r = Lazy.force sampled_record in
  let base = { r with Qor.Record.alloc_mb_total = 40. } in
  let bloated = { base with Qor.Record.alloc_mb_total = 80. } in
  let cmp = Qor.Compare.diff ~baseline:[ base ] ~current:[ bloated ] in
  (* Warning severity: clean by default... *)
  (match Qor.Compare.gate cmp with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "alloc drift must not fail a default gate");
  (* ...flagged under --werror *)
  match Qor.Compare.gate ~werror:true cmp with
  | Ok () -> Alcotest.fail "a doubled allocation must fail under --werror"
  | Error fs ->
    Alcotest.(check (list string)) "pinned verdict id"
      [ "qor/alloc_mb_total" ] (finding_ids fs);
    Alcotest.check verdict "regressed" Qor.Policy.Regressed
      (List.hd fs).Qor.Compare.verdict

let () =
  Alcotest.run "qor"
    [ ( "record",
        [ Alcotest.test_case "fields" `Quick test_record_fields;
          Alcotest.test_case "tech hash" `Quick test_tech_hash_distinguishes;
          Alcotest.test_case "json roundtrip" `Quick test_record_json_roundtrip;
          Alcotest.test_case "schema skew" `Quick test_record_schema_skew;
          Alcotest.test_case "rules from result" `Quick
            test_record_rules_from_result ] );
      ( "ledger",
        [ Alcotest.test_case "roundtrip + corruption" `Quick
            test_ledger_roundtrip;
          Alcotest.test_case "baseline roundtrip" `Quick
            test_baseline_roundtrip;
          Alcotest.test_case "concurrent appends keep whole lines" `Quick
            test_ledger_concurrent_appends;
          Alcotest.test_case "serve row roundtrip" `Quick
            test_ledger_serve_row_roundtrip;
          Alcotest.test_case "committed files load" `Quick
            test_committed_files;
          Alcotest.test_case "BENCH_flow.json records" `Quick
            test_bench_flow_records ] );
      ( "provenance",
        [ Alcotest.test_case "version matches CHANGELOG" `Quick
            test_version_matches_changelog;
          Alcotest.test_case "core count" `Quick test_provenance_cores ] );
      ( "policy",
        [ Alcotest.test_case "relative thresholds" `Quick
            test_policy_rel_thresholds;
          Alcotest.test_case "nan guard" `Quick test_policy_nan_guard;
          Alcotest.test_case "absolute" `Quick test_policy_abs;
          Alcotest.test_case "exact" `Quick test_policy_exact ] );
      ( "sentinel",
        [ Alcotest.test_case "identical is clean" `Quick
            test_diff_identical_is_clean;
          Alcotest.test_case "seeded regression" `Quick
            test_diff_seeded_regression;
          Alcotest.test_case "werror and severity" `Quick
            test_diff_werror_and_severity;
          Alcotest.test_case "coverage and skew" `Quick
            test_diff_coverage_and_skew;
          Alcotest.test_case "verdict json" `Quick test_diff_json_shape ] );
      ( "memory",
        [ Alcotest.test_case "sampled record roundtrip" `Quick
            test_memory_record_roundtrip;
          Alcotest.test_case "unsampled compat" `Quick
            test_memory_compat_with_unsampled;
          Alcotest.test_case "seeded alloc regression" `Quick
            test_diff_seeded_alloc_regression ] );
      ( "explain",
        [ Alcotest.test_case "delay sums" `Quick test_explain_delay_sums;
          Alcotest.test_case "inl sums" `Quick test_explain_inl_sums;
          Alcotest.test_case "labels pinned" `Quick test_explain_labels;
          Alcotest.test_case "renderings" `Quick test_explain_renderings ] );
      ( "quantile",
        [ Alcotest.test_case "histogram quantiles" `Quick test_quantile;
          Alcotest.test_case "p99 at small n" `Quick test_quantile_p99_small_n
        ] ) ]
