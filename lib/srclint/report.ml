let suppressed_total (r : Engine.result) =
  List.fold_left
    (fun acc s -> acc + s.Engine.matched)
    0 r.Engine.suppressions

let summary_line (r : Engine.result) =
  let plural n = if n = 1 then "" else "s" in
  let sup = suppressed_total r in
  Printf.sprintf "%s (%d file%s scanned%s)"
    (Diag.summary ~clean:"source tree clean" r.Engine.diagnostics)
    r.Engine.files_scanned (plural r.Engine.files_scanned)
    (if sup > 0 then Printf.sprintf ", %d finding%s suppressed" sup (plural sup)
     else "")

let text (r : Engine.result) =
  String.concat ""
    (List.map (fun d -> Format.asprintf "%a\n" Diag.pp d) r.Engine.diagnostics
     @ [ summary_line r; "\n" ])

let category (r : Diag.rule) = Diag.category Registry.all r

let diag_json (d : Diag.t) =
  Printf.sprintf
    "{\"rule\": \"%s\", \"category\": \"%s\", \"severity\": \"%s\", \
     \"file\": \"%s\", \"line\": %d, \"col\": %d, \"detail\": \"%s\"}"
    (Diag.json_escape d.Diag.rule.Diag.id) (category d.Diag.rule)
    (Diag.severity_name (Diag.severity d))
    (Diag.json_escape d.Diag.loc) d.Diag.line d.Diag.col
    (Diag.json_escape d.Diag.detail)

let suppression_json (s : Engine.suppression) =
  let e = s.Engine.entry in
  Printf.sprintf
    "{\"rule\": \"%s\", \"path\": \"%s\", \"line\": %d, \"matched\": %d, \
     \"justification\": \"%s\"}"
    (Diag.json_escape e.Allowlist.rule_id)
    (Diag.json_escape e.Allowlist.path)
    e.Allowlist.line s.Engine.matched
    (Diag.json_escape e.Allowlist.justification)

let json (r : Engine.result) =
  Printf.sprintf
    "{\"version\": 1, \"tool\": \"cclint\",\n\
    \ \"summary\": {%s, \"suppressed\": %d, \"files_scanned\": %d},\n\
    \ \"diagnostics\": [%s],\n\
    \ \"suppressions\": [%s]}\n"
    (Diag.json_counts r.Engine.diagnostics)
    (suppressed_total r) r.Engine.files_scanned
    (String.concat ",\n   " (List.map diag_json r.Engine.diagnostics))
    (String.concat ",\n   " (List.map suppression_json r.Engine.suppressions))

let json_rules () =
  Printf.sprintf "{\"version\": 1, \"tool\": \"cclint\", \"rules\": [%s]}\n"
    (String.concat ",\n  "
       (List.map (Diag.rule_json Registry.all) Registry.all.Diag.rules))

let text_rules () =
  String.concat ""
    (List.map
       (fun (r : Diag.rule) ->
          Printf.sprintf "%s[%s] (%s): %s\n"
            (Diag.severity_name r.Diag.severity) r.Diag.id (category r)
            r.Diag.doc)
       Registry.all.Diag.rules)
