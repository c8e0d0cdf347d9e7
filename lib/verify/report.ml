let summary_line diags = Diag.summary ~clean:"clean" diags

let text diags =
  let diags = Diag.sort diags in
  String.concat ""
    (List.map (fun d -> Format.asprintf "%a\n" Diag.pp d) diags
     @ [ summary_line diags; "\n" ])

let category (r : Diag.rule) = Diag.category Registry.all r

let json_diagnostic (d : Diag.t) =
  Printf.sprintf "{\"rule\": \"%s\", \"category\": \"%s\", \"severity\": \"%s\"%s, \
                  \"detail\": \"%s\"}"
    (Diag.json_escape d.Diag.rule.Diag.id) (category d.Diag.rule)
    (Diag.severity_name (Diag.severity d))
    (if d.Diag.loc = "" then ""
     else Printf.sprintf ", \"loc\": \"%s\"" (Diag.json_escape d.Diag.loc))
    (Diag.json_escape d.Diag.detail)

let json ?label diags =
  let diags = Diag.sort diags in
  Printf.sprintf "{\"version\": 1%s, \"summary\": {%s}, \"diagnostics\": [%s]}"
    (match label with
     | None -> ""
     | Some l -> Printf.sprintf ", \"label\": \"%s\"" (Diag.json_escape l))
    (Diag.json_counts diags)
    (String.concat ", " (List.map json_diagnostic diags))

let json_rules () =
  Printf.sprintf "{\"version\": 1, \"rules\": [%s]}"
    (String.concat ", "
       (List.map (Diag.rule_json Registry.all) Registry.all.Diag.rules))
