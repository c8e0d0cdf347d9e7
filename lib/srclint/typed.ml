(* The typed whole-program pass, end to end: load the committed .ccdeps
   manifest and every cmt under _build/default/lib, then run manifest
   validation, taint, escape and layering.  Engine.run merges the result
   into the syntactic checkers' diagnostics. *)

let run ~root =
  match Manifest.load ~root with
  | Error msg ->
    [ Diagnostic.make ~rule:Typed_rules.manifest_error ~file:Manifest.path msg ]
  | Ok manifest ->
    let u = Cmts.load ~root in
    u.Cmts.errors
    @ Analysis.run ~manifest ~libs:u.Cmts.libs
        ~lib_of_module:u.Cmts.lib_of_module u.Cmts.mods
