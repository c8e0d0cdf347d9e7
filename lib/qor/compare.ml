module Json = Telemetry.Json

type finding = {
  policy : Policy.t;
  label : string;
  verdict : Policy.verdict;
  detail : string;
}

type t = {
  findings : finding list;
  warnings : string list;
}

let coverage_policy =
  { Policy.id = "qor/coverage";
    metric = "baseline coverage";
    unit_ = "1";
    kind = Policy.Exact_set;
    sense = Policy.Neither;
    severity = Diag.Error }

(* Pull the observation a policy judges out of a record.  The mapping is
   the other half of the Policy.catalogue contract. *)
let observe (p : Policy.t) (r : Record.t) =
  match p.Policy.id with
  | "qor/f3db_mhz" -> Some (Policy.Scalar r.Record.f3db_mhz)
  | "qor/max_inl_lsb" -> Some (Policy.Scalar r.Record.max_inl_lsb)
  | "qor/max_dnl_lsb" -> Some (Policy.Scalar r.Record.max_dnl_lsb)
  | "qor/via_cuts" -> Some (Policy.Count r.Record.via_cuts)
  | "qor/bends" -> Some (Policy.Count r.Record.bends)
  | "qor/wirelength_um" -> Some (Policy.Scalar r.Record.wirelength_um)
  | "qor/area_um2" -> Some (Policy.Scalar r.Record.area_um2)
  (* The memory metrics exist only in records captured with
     Telemetry.Memory sampling on; a record without them (alloc = nan)
     observes None, so mixed old/new comparisons skip the metric instead
     of failing Incomparable. *)
  | "qor/alloc_mb_total" ->
    if Float.is_nan r.Record.alloc_mb_total then None
    else Some (Policy.Scalar r.Record.alloc_mb_total)
  | "qor/major_collections" ->
    if Float.is_nan r.Record.alloc_mb_total then None
    else Some (Policy.Scalar (float_of_int r.Record.major_collections))
  | "qor/verify_rules" -> Some (Policy.Set r.Record.verify_rules)
  | "qor/lvs_rules" -> Some (Policy.Set r.Record.lvs_rules)
  | "qor/tech_hash" -> Some (Policy.Set [ r.Record.tech_hash ])
  | _ -> None

let note_verdict v =
  if Telemetry.Metrics.enabled () then
    Telemetry.Metrics.incr ~label:(Policy.verdict_name v) "qor/verdicts_total"

let compare_records ~(baseline : Record.t) ~(current : Record.t) =
  if Telemetry.Metrics.enabled () then
    Telemetry.Metrics.incr "qor/diffs_total";
  List.filter_map
    (fun (p : Policy.t) ->
       match observe p baseline, observe p current with
       | Some b, Some c ->
         let verdict, detail = Policy.judge p ~baseline:b ~current:c in
         note_verdict verdict;
         Some { policy = p; label = current.Record.label; verdict; detail }
       | None, _ | _, None -> None)
    Policy.catalogue

let verdict_rank = function
  | Policy.Regressed -> 0
  | Policy.Incomparable -> 1
  | Policy.Improved -> 2
  | Policy.Unchanged -> 3

let sort_findings fs =
  List.sort
    (fun a b ->
       match Int.compare (verdict_rank a.verdict) (verdict_rank b.verdict) with
       | 0 ->
         (match
            Diag.compare_severity a.policy.Policy.severity
              b.policy.Policy.severity
          with
          | 0 ->
            (match String.compare a.policy.Policy.id b.policy.Policy.id with
             | 0 -> String.compare a.label b.label
             | c -> c)
          | c -> c)
       | c -> c)
    fs

let diff ~baseline ~current =
  let find label records =
    List.find_opt (fun (r : Record.t) -> String.equal r.Record.label label)
      records
  in
  let findings, warnings =
    List.fold_left
      (fun (fs, ws) (b : Record.t) ->
         match find b.Record.label current with
         | Some c ->
           let skew =
             if b.Record.schema_version <> c.Record.schema_version then
               [ Printf.sprintf
                   "%s: schema version skew (baseline v%d, current v%d); \
                    missing metrics read as incomparable"
                   b.Record.label b.Record.schema_version
                   c.Record.schema_version ]
             else []
           in
           (compare_records ~baseline:b ~current:c @ fs, skew @ ws)
         | None ->
           let f =
             { policy = coverage_policy;
               label = b.Record.label;
               verdict = Policy.Incomparable;
               detail =
                 "configuration present in the baseline has no current \
                  record" }
           in
           note_verdict f.verdict;
           (f :: fs, ws))
      ([], []) baseline
  in
  let extra =
    List.filter_map
      (fun (c : Record.t) ->
         if find c.Record.label baseline = None then
           Some
             (Printf.sprintf "%s: no baseline record (new configuration?)"
                c.Record.label)
         else None)
      current
  in
  { findings = sort_findings findings; warnings = List.rev warnings @ extra }

let failing ?werror t =
  List.filter
    (fun f ->
       (match f.verdict with
        | Policy.Regressed | Policy.Incomparable -> true
        | Policy.Improved | Policy.Unchanged -> false)
       && Diag.disqualifies ?werror f.policy.Policy.severity)
    t.findings

let gate ?werror t =
  match failing ?werror t with [] -> Ok () | fs -> Error fs

let summary_counts t =
  List.fold_left
    (fun (r, i, im, u) f ->
       match f.verdict with
       | Policy.Regressed -> (r + 1, i, im, u)
       | Policy.Incomparable -> (r, i + 1, im, u)
       | Policy.Improved -> (r, i, im + 1, u)
       | Policy.Unchanged -> (r, i, im, u + 1))
    (0, 0, 0, 0) t.findings

let summary_line t =
  let r, i, im, _ = summary_counts t in
  if r = 0 && i = 0 && im = 0 then "clean"
  else
    String.concat ", "
      (List.filter_map
         (fun (n, what) ->
            if n = 0 then None else Some (Printf.sprintf "%d %s" n what))
         [ (r, "regressed"); (i, "incomparable"); (im, "improved") ])

let text t =
  let b = Buffer.create 1024 in
  List.iter
    (fun f ->
       if f.verdict <> Policy.Unchanged then
         Buffer.add_string b
           (Printf.sprintf "%s[%s] %s: %s\n"
              (Policy.verdict_name f.verdict)
              f.policy.Policy.id f.label f.detail))
    t.findings;
  List.iter
    (fun w -> Buffer.add_string b (Printf.sprintf "note: %s\n" w))
    t.warnings;
  Buffer.add_string b (summary_line t);
  Buffer.add_char b '\n';
  Buffer.contents b

let to_json t =
  let r, i, im, u = summary_counts t in
  Json.Obj
    [ ("version", Json.Num 1.);
      ( "summary",
        Json.Obj
          [ ("regressed", Json.Num (float_of_int r));
            ("incomparable", Json.Num (float_of_int i));
            ("improved", Json.Num (float_of_int im));
            ("unchanged", Json.Num (float_of_int u));
            ("total", Json.Num (float_of_int (List.length t.findings))) ] );
      ( "findings",
        Json.Arr
          (List.map
             (fun f ->
                Json.Obj
                  [ ("id", Json.Str f.policy.Policy.id);
                    ("label", Json.Str f.label);
                    ("metric", Json.Str f.policy.Policy.metric);
                    ( "severity",
                      Json.Str
                        (Diag.severity_name f.policy.Policy.severity) );
                    ("verdict", Json.Str (Policy.verdict_name f.verdict));
                    ("detail", Json.Str f.detail) ])
             t.findings) );
      ("warnings", Json.Arr (List.map (fun w -> Json.Str w) t.warnings)) ]
