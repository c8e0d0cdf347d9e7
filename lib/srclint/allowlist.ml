type entry = {
  rule_id : string;
  path : string;
  justification : string;
  line : int;
}

type t = {
  file : string;
  entries : entry list;
}

let empty = { file = ".cclint"; entries = [] }

let stale_rule =
  Diag.rule ~id:"meta/stale-suppression" ~severity:Diag.Error
    ~doc:
      "The allowlist entry suppressed nothing; the violation it excused \
       is gone, so the entry must go too."

let missing_justification_rule =
  Diag.rule ~id:"meta/missing-justification" ~severity:Diag.Error
    ~doc:
      "Every suppression must say why it is sound, in the entry itself."

let unknown_rule_rule =
  Diag.rule ~id:"meta/unknown-rule" ~severity:Diag.Error
    ~doc:
      "The allowlist entry names a rule the registry does not know — a \
       typo would otherwise suppress nothing, silently."

let duplicate_rule =
  Diag.rule ~id:"meta/duplicate-suppression" ~severity:Diag.Error
    ~doc:
      "Two allowlist entries name the same (rule, path); only the first \
       can ever match, so the second is dead weight that would otherwise \
       read as stale nondeterministically.  Keep one entry."

let rules = [ stale_rule; missing_justification_rule; unknown_rule_rule;
              duplicate_rule ]

let is_blank s = String.trim s = ""

let is_comment s =
  let s = String.trim s in
  String.length s > 0 && s.[0] = '#'

(* "<rule> <path> : <justification>"; the justification may itself contain
   colons, so only the first " : " separator (or trailing ":") counts. *)
let parse_line ~file ~line s =
  let body, justification =
    match String.index_opt s ':' with
    | Some i ->
      ( String.sub s 0 i,
        String.trim (String.sub s (i + 1) (String.length s - i - 1)) )
    | None -> (s, "")
  in
  match
    String.split_on_char ' ' body |> List.filter (fun t -> t <> "")
  with
  | [ rule_id; path ] -> Ok { rule_id; path; justification; line }
  | _ ->
    Error
      (Printf.sprintf
         "%s:%d: malformed allowlist entry (want \"<rule-id> <path> : \
          <justification>\")"
         file line)

let parse_string ~file contents =
  let lines = String.split_on_char '\n' contents in
  let rec go n acc = function
    | [] -> Ok { file; entries = List.rev acc }
    | l :: rest ->
      if is_blank l || is_comment l then go (n + 1) acc rest
      else begin
        match parse_line ~file ~line:n l with
        | Ok e -> go (n + 1) (e :: acc) rest
        | Error _ as err -> err
      end
  in
  go 1 [] lines

let load path =
  if not (Sys.file_exists path) then Ok { file = path; entries = [] }
  else begin
    match In_channel.with_open_bin path In_channel.input_all with
    | contents -> parse_string ~file:path contents
    | exception Sys_error msg -> Error msg
  end
