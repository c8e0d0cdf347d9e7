(* cclint: the source-level static analyzer of this repository's own
   OCaml (docs/SRCLINT.md).  Run `dune build` first: the typed
   whole-program pass reads the .cmt files under _build/default/lib and
   reports any library or module they do not cover as meta/cmt-error.

     cclint --werror              gate the whole tree (CI)
     cclint --json > cclint.json  machine-readable report
     cclint --rules det,domain    one or two rule families only
     cclint --list-rules          the rule catalogue *)

open Cmdliner

let doc =
  "Static analysis of this repository's own OCaml sources: determinism, \
   domain-safety, error-handling and hygiene contracts, plus the typed \
   whole-program taint, domain-escape and layering analyses over the \
   .cmt files of a `dune build` (docs/SRCLINT.md)."

let root_arg =
  let doc =
    "Repository root to scan; lib/, bin/, bench/ and test/ under it, and \
     the .cmt files under its _build/default/lib."
  in
  Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc)

let werror_arg =
  let doc = "Treat warnings as findings (nonzero exit)." in
  Arg.(value & flag & info [ "werror" ] ~doc)

let json_arg =
  let doc = "Emit the machine-readable JSON report instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let rules_arg =
  let doc =
    "Comma-separated rule ids or families to run (e.g. \
     $(b,det/wall-clock,hyg)); default all."
  in
  Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"IDS" ~doc)

let allowlist_arg =
  let doc = "Suppression file, relative to $(b,--root)." in
  Arg.(value & opt string ".cclint" & info [ "allowlist" ] ~docv:"FILE" ~doc)

let no_allowlist_arg =
  let doc = "Ignore the suppression file (report everything)." in
  Arg.(value & flag & info [ "no-allowlist" ] ~doc)

let list_rules_arg =
  let doc = "Print the rule catalogue and exit." in
  Arg.(value & flag & info [ "list-rules" ] ~doc)

let run root werror json rules allowlist_path no_allowlist list_rules =
  if list_rules then begin
    print_string
      (if json then Srclint.Report.json_rules ()
       else Srclint.Report.text_rules ());
    exit 0
  end;
  let rules =
    Option.map
      (fun s ->
         String.split_on_char ',' s
         |> List.map String.trim
         |> List.filter (fun p -> p <> ""))
      rules
  in
  (match rules with
   | Some patterns -> begin
       match Diag.selects_nothing Srclint.Registry.all patterns with
       | [] -> ()
       | bad ->
         Printf.eprintf "cclint: --rules selects no known rule: %s\n"
           (String.concat ", " bad);
         exit 2
     end
   | None -> ());
  let allowlist =
    if no_allowlist then Srclint.Allowlist.empty
    else begin
      match Srclint.Allowlist.load (Filename.concat root allowlist_path) with
      | Ok a -> a
      | Error msg ->
        Printf.eprintf "cclint: %s\n" msg;
        exit 2
    end
  in
  let result = Srclint.Engine.run ?rules ~allowlist ~root () in
  if result.Srclint.Engine.files_scanned = 0 then begin
    Printf.eprintf
      "cclint: no .ml files under %s/{lib,bin,bench,test} — wrong --root?\n"
      root;
    exit 2
  end;
  if json then print_string (Srclint.Report.json result)
  else print_string (Srclint.Report.text result);
  if Diag.fails ~werror result.Srclint.Engine.diagnostics then exit 1

let () =
  let term =
    Term.(
      const run $ root_arg $ werror_arg $ json_arg $ rules_arg
      $ allowlist_arg $ no_allowlist_arg $ list_rules_arg)
  in
  exit (Cmd.eval (Cmd.v (Cmd.info "cclint" ~version:"1.6.0" ~doc) term))
