type t = {
  rule : Rule.t;
  file : string;
  line : int;
  col : int;
  detail : string;
}

let make ~rule ~file ?(line = 0) ?(col = 0) detail =
  { rule; file; line; col; detail }

let makef ~rule ~file ?line ?col fmt =
  Printf.ksprintf (make ~rule ~file ?line ?col) fmt

let severity t = t.rule.Rule.severity

let compare a b =
  let c = Rule.compare_severity a.rule.Rule.severity b.rule.Rule.severity in
  if c <> 0 then c
  else
    let c = String.compare a.rule.Rule.id b.rule.Rule.id in
    if c <> 0 then c
    else
      let c = String.compare a.file b.file in
      if c <> 0 then c
      else
        let c = Int.compare a.line b.line in
        if c <> 0 then c
        else
          let c = Int.compare a.col b.col in
          if c <> 0 then c else String.compare a.detail b.detail

let sort diags = List.sort compare diags

let count sev diags =
  List.length (List.filter (fun d -> severity d = sev) diags)

let errors diags = List.filter (fun d -> severity d = Rule.Error) diags

let rule_ids diags =
  List.sort_uniq String.compare (List.map (fun d -> d.rule.Rule.id) diags)

let pp ppf t =
  let severity = Rule.severity_name t.rule.Rule.severity in
  if t.line = 0 then
    Format.fprintf ppf "%s[%s] %s: %s" severity t.rule.Rule.id t.file t.detail
  else
    Format.fprintf ppf "%s[%s] %s:%d:%d: %s" severity t.rule.Rule.id t.file
      t.line t.col t.detail
