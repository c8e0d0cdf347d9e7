type suppression = {
  entry : Allowlist.entry;
  matched : int;
}

type result = {
  files_scanned : int;
  diagnostics : Diagnostic.t list;
  suppressions : suppression list;
}

let default_roots = [ "lib"; "bin"; "bench"; "test" ]

let skip_dir name =
  name = "_build" || (String.length name > 0 && name.[0] = '.')

let ml_files ~root =
  let out = ref [] in
  let rec walk rel_dir =
    let abs = Filename.concat root rel_dir in
    match Sys.readdir abs with
    | entries ->
      Array.sort String.compare entries;
      Array.iter
        (fun name ->
           let rel = rel_dir ^ "/" ^ name in
           let abs = Filename.concat root rel in
           if Sys.is_directory abs then begin
             if not (skip_dir name) then walk rel
           end
           else if Filename.check_suffix name ".ml" then out := rel :: !out)
        entries
    | exception Sys_error _ -> ()
  in
  List.iter
    (fun r -> if Sys.file_exists (Filename.concat root r) then walk r)
    default_roots;
  List.sort String.compare !out

let checkers =
  [ Det_rules.check; Domain_rules.check; Error_rules.check;
    Hygiene_rules.check ]

let check_source src =
  List.concat_map (fun check -> check src) checkers

let check_string ~path contents =
  match Source.parse ~path contents with
  | Ok src -> Diagnostic.sort (check_source src)
  | Error diag -> [ diag ]

let check_file ~root path =
  match
    In_channel.with_open_bin (Filename.concat root path) In_channel.input_all
  with
  | contents -> check_string ~path contents
  | exception Sys_error msg ->
    [ Diagnostic.makef ~rule:Source.parse_error_rule ~file:path
        "unreadable: %s" msg ]

let apply_allowlist (allowlist : Allowlist.t) diags =
  let suppressed_by d =
    List.find_opt
      (fun (e : Allowlist.entry) ->
         e.Allowlist.rule_id = d.Diagnostic.rule.Rule.id
         && e.Allowlist.path = d.Diagnostic.file)
      allowlist.Allowlist.entries
  in
  let kept, matches =
    List.fold_left
      (fun (kept, matches) d ->
         match suppressed_by d with
         | Some e -> (kept, e.Allowlist.line :: matches)
         | None -> (d :: kept, matches))
      ([], []) diags
  in
  let meta = ref [] in
  let emit rule (e : Allowlist.entry) fmt =
    Printf.ksprintf
      (fun detail ->
         meta :=
           Diagnostic.make ~rule ~file:allowlist.Allowlist.file
             ~line:e.Allowlist.line detail
           :: !meta)
      fmt
  in
  let suppressions =
    let seen = ref [] in
    List.map
      (fun (e : Allowlist.entry) ->
         let matched =
           List.length (List.filter (fun l -> l = e.Allowlist.line) matches)
         in
         let key = (e.Allowlist.rule_id, e.Allowlist.path) in
         if List.mem key !seen then
           (* A later duplicate can never match (the first entry wins in
              [suppressed_by]), so it gets exactly this one diagnostic —
              not a coin-flip between duplicate and stale. *)
           emit Allowlist.duplicate_rule e
             "duplicate suppression of %s in %s (an earlier entry already \
              covers it)"
             e.Allowlist.rule_id e.Allowlist.path
         else begin
           seen := key :: !seen;
           if e.Allowlist.justification = "" then
             emit Allowlist.missing_justification_rule e
               "suppression of %s in %s has no justification"
               e.Allowlist.rule_id e.Allowlist.path;
           if not (List.mem e.Allowlist.rule_id Registry.ids) then
             emit Allowlist.unknown_rule_rule e "unknown rule %s"
               e.Allowlist.rule_id
           else if matched = 0 then
             emit Allowlist.stale_rule e
               "stale suppression: no %s finding in %s" e.Allowlist.rule_id
               e.Allowlist.path
         end;
         { entry = e; matched })
      allowlist.Allowlist.entries
  in
  (List.rev kept @ List.rev !meta, suppressions)

let run ?rules ?(allowlist = Allowlist.empty) ~root () =
  let files = ml_files ~root in
  let diags =
    List.concat_map (fun path -> check_file ~root path) files
    @ Typed.run ~root
  in
  let selected id =
    match rules with
    | None -> true
    | Some patterns -> Registry.matches ~patterns id
  in
  let diags =
    List.filter (fun d -> selected d.Diagnostic.rule.Rule.id) diags
  in
  let allowlist =
    { allowlist with
      Allowlist.entries =
        List.filter
          (fun (e : Allowlist.entry) -> selected e.Allowlist.rule_id)
          allowlist.Allowlist.entries }
  in
  let diagnostics, suppressions = apply_allowlist allowlist diags in
  { files_scanned = List.length files;
    diagnostics = Diagnostic.sort diagnostics;
    suppressions }

let has_findings ?(werror = false) diags =
  List.exists
    (fun d ->
       match Diagnostic.severity d with
       | Rule.Error -> true
       | Rule.Warning -> werror
       | Rule.Info -> false)
    diags
