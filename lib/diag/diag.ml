type severity =
  | Error
  | Warning
  | Info

let severity_name (s : severity) =
  match s with
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank (s : severity) =
  match s with Error -> 0 | Warning -> 1 | Info -> 2

let compare_severity a b = Int.compare (severity_rank a) (severity_rank b)

let disqualifies ?(werror = false) (s : severity) =
  match s with
  | Error -> true
  | Warning -> werror
  | Info -> false

type rule = {
  id : string;
  severity : severity;
  doc : string;
}

let rule ~id ~severity ~doc = { id; severity; doc }

let family id =
  match String.index_opt id '/' with
  | Some i -> String.sub id 0 i
  | None -> id

type t = {
  rule : rule;
  loc : string;
  line : int;
  col : int;
  detail : string;
}

let make ?(loc = "") ?(line = 0) ?(col = 0) rule detail =
  { rule; loc; line; col; detail }

let makef ?loc ?line ?col rule fmt =
  Printf.ksprintf (make ?loc ?line ?col rule) fmt

let severity t = t.rule.severity

let compare a b =
  let c = compare_severity (severity a) (severity b) in
  if c <> 0 then c
  else
    let c = String.compare a.rule.id b.rule.id in
    if c <> 0 then c
    else
      let c = String.compare a.loc b.loc in
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

let errors diags = List.filter (fun d -> severity d = Error) diags

let rule_ids diags =
  List.sort_uniq String.compare (List.map (fun d -> d.rule.id) diags)

let fails ?werror diags =
  List.exists (fun d -> disqualifies ?werror (severity d)) diags

let pp ppf t =
  let severity = severity_name (severity t) in
  if t.loc = "" then
    Format.fprintf ppf "%s[%s] %s" severity t.rule.id t.detail
  else if t.line = 0 then
    Format.fprintf ppf "%s[%s] %s: %s" severity t.rule.id t.loc t.detail
  else
    Format.fprintf ppf "%s[%s] %s:%d:%d: %s" severity t.rule.id t.loc t.line
      t.col t.detail

let summary ~clean diags =
  let part (sev, what) =
    match count sev diags with
    | 0 -> None
    | n -> Some (Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s"))
  in
  match
    List.filter_map part
      [ ((Error : severity), "error"); (Warning, "warning"); (Info, "info") ]
  with
  | [] -> clean
  | parts -> String.concat ", " parts

let json_counts diags =
  Printf.sprintf
    "\"errors\": %d, \"warnings\": %d, \"infos\": %d, \"total\": %d"
    (count Error diags) (count Warning diags) (count Info diags)
    (List.length diags)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

type catalogue = {
  rules : rule list;
  categories : (string * string) list;
}

let catalogue ~categories rules =
  let rules = List.sort (fun a b -> String.compare a.id b.id) rules in
  let rec check = function
    | a :: b :: _ when String.equal a.id b.id ->
      invalid_arg ("Diag.catalogue: duplicate rule id " ^ a.id)
    | a :: rest ->
      if not (List.mem_assoc (family a.id) categories) then
        invalid_arg ("Diag.catalogue: no category for rule " ^ a.id);
      check rest
    | [] -> ()
  in
  check rules;
  { rules; categories }

let find c id = List.find_opt (fun r -> String.equal r.id id) c.rules

let ids c = List.map (fun r -> r.id) c.rules

let category c r = List.assoc (family r.id) c.categories

let rule_json c r =
  Printf.sprintf
    "{\"id\": \"%s\", \"category\": \"%s\", \"severity\": \"%s\", \
     \"doc\": \"%s\"}"
    (json_escape r.id) (category c r) (severity_name r.severity)
    (json_escape r.doc)

let pattern_matches p id =
  let strip suffix p =
    if String.ends_with ~suffix p then Filename.chop_suffix p suffix else p
  in
  let prefix = strip "/" (strip "*" p) ^ "/" in
  String.equal id p || (String.starts_with ~prefix id && id <> prefix)

let matches ~patterns id = List.exists (fun p -> pattern_matches p id) patterns

let selects_nothing c patterns =
  List.filter
    (fun p -> not (List.exists (pattern_matches p) (ids c)))
    patterns
