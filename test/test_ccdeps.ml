(* Tests for the typed whole-program pass of cclint (Srclint.Typed): the
   taint, domain-escape and layering analyses each pinned by a violating
   and a clean fixture, manifest parsing/validation, trust boundaries,
   the registry wiring of the int/ and arch/ rule families, and the
   check that every lib/ module has a .cmt built from its current
   source.

   Fixtures are typechecked in-process (Typecheck.summarize), so a local
   [module Par = struct module Pool = ... end] stub yields the exact
   "Par.Pool.map_list_exn" path spellings the real library produces. *)

let manifest_exn src =
  match Srclint.Manifest.parse_string ~file:".ccdeps-test" src with
  | Ok m -> m
  | Error msg -> Alcotest.failf "manifest fixture did not parse: %s" msg

let summarize ~lib ~modname src =
  Srclint.Typecheck.summarize ~lib ~modname
    ~file:(Printf.sprintf "lib/%s/fix.ml" lib)
    src

(* The exact (sorted, deduplicated) rule-id set a fixture fires. *)
let check_ids what expected diags =
  Alcotest.(check (list string)) what expected
    (Srclint.Diagnostic.rule_ids diags)

let run_typed ~manifest mods =
  let libs =
    List.sort_uniq String.compare
      (List.map (fun (m : Srclint.Summary.moddef) -> m.Srclint.Summary.m_lib)
         mods)
  in
  let heads = Hashtbl.create 8 in
  List.iter
    (fun (m : Srclint.Summary.moddef) ->
       Hashtbl.replace heads
         (Srclint.Names.head m.Srclint.Summary.m_name)
         m.Srclint.Summary.m_lib)
    mods;
  Srclint.Analysis.run ~manifest ~libs ~lib_of_module:(Hashtbl.find_opt heads)
    mods

(* --- effect/determinism taint --- *)

(* Two hops above the source: kernel -> mid -> Impl.stamp -> Sys.time. *)
let tainted_kernel =
  "module Impl = struct\n\
  \  let stamp () = Sys.time ()\n\
   end\n\
   let mid () = Impl.stamp () +. 1.0\n\
   let kernel () = mid () *. 2.0\n"

let clean_kernel =
  "module Impl = struct\n\
  \  let stamp () = 41.0\n\
   end\n\
   let mid () = Impl.stamp () +. 1.0\n\
   let kernel () = mid () *. 2.0\n"

let test_taint_chain () =
  let manifest = manifest_exn "layer fixkern 0\npure fixkern : fixture" in
  let mods = [ summarize ~lib:"fixkern" ~modname:"Fixkern" tainted_kernel ] in
  let diags = run_typed ~manifest mods in
  check_ids "transitively tainted kernel" [ "int/taint-wall-clock" ] diags;
  Alcotest.(check int) "all three defs on the chain flagged" 3
    (List.length diags);
  let kernel_diag =
    List.find
      (fun (d : Srclint.Diagnostic.t) -> d.Srclint.Diagnostic.line = 5)
      diags
  in
  Alcotest.(check bool) "detail names the full call chain" true
    (let open Srclint.Diagnostic in
     let contains ~sub s =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
       in
       go 0
     in
     contains
       ~sub:"Fixkern.kernel -> Fixkern.mid -> Fixkern.Impl.stamp -> Sys.time"
       kernel_diag.detail)

let test_taint_clean () =
  let manifest = manifest_exn "layer fixkern 0\npure fixkern : fixture" in
  let mods = [ summarize ~lib:"fixkern" ~modname:"Fixkern" clean_kernel ] in
  check_ids "same shape without the source is clean" []
    (run_typed ~manifest mods)

let test_taint_impure_lib_exempt () =
  (* The identical tainted chain in a lib with no purity contract is not
     a finding — the contract is what the manifest says it is. *)
  let manifest = manifest_exn "layer fixkern 0" in
  let mods = [ summarize ~lib:"fixkern" ~modname:"Fixkern" tainted_kernel ] in
  check_ids "no pure contract, no finding" [] (run_typed ~manifest mods)

let test_taint_trust_boundary () =
  (* Trusting the module holding the source stops propagation: callers
     are clean, and the trusted def itself is exempt. *)
  let manifest =
    manifest_exn
      "layer fixkern 0\npure fixkern : fixture\ntrust Fixkern.Impl : audited"
  in
  let mods = [ summarize ~lib:"fixkern" ~modname:"Fixkern" tainted_kernel ] in
  check_ids "trusted boundary stops the taint" [] (run_typed ~manifest mods)

let test_taint_kinds () =
  let manifest = manifest_exn "layer fixkern 0\npure fixkern : fixture" in
  let check src expected =
    let mods = [ summarize ~lib:"fixkern" ~modname:"Fixkern" src ] in
    check_ids src expected (run_typed ~manifest mods)
  in
  check "let k () = Random.int 6" [ "int/taint-random" ];
  check "let k () = Sys.getenv_opt \"HOME\"" [ "int/taint-getenv" ];
  check "let k () = Gc.compact ()" [ "int/taint-gc" ];
  check "let k () = print_string \"hi\"" [ "int/taint-print" ];
  (* explicit Random.State is the sanctioned idiom *)
  check "let k st = Random.State.int st 6" []

(* --- domain-escape race detection --- *)

let par_stub =
  "module Par = struct\n\
  \  module Pool = struct\n\
  \    let map_list_exn ?jobs f xs = ignore jobs; List.map f xs\n\
  \  end\n\
   end\n"

let escaping_closure =
  par_stub
  ^ "let total = ref 0\n\
     let sum xs = Par.Pool.map_list_exn (fun x -> total := !total + x) xs\n"

let clean_closure =
  par_stub ^ "let sum xs = Par.Pool.map_list_exn (fun x -> x * 2) xs\n"

let escape_manifest =
  "layer fixesc 0\npure fixesc : fixture\ntrust Par : fixture stub"

let test_escape_capture () =
  let manifest = manifest_exn escape_manifest in
  let mods = [ summarize ~lib:"fixesc" ~modname:"Fixesc" escaping_closure ] in
  check_ids "mutable capture escapes into the pool closure"
    [ "int/domain-escape" ]
    (run_typed ~manifest mods)

let test_escape_clean () =
  let manifest = manifest_exn escape_manifest in
  let mods = [ summarize ~lib:"fixesc" ~modname:"Fixesc" clean_closure ] in
  check_ids "pure task closure is clean" [] (run_typed ~manifest mods)

let test_escape_via_callee () =
  (* The write hides one call away: the task calls a module sibling that
     mutates module-level state. *)
  let src =
    par_stub
    ^ "let tally = Hashtbl.create 16\n\
       let bump k = Hashtbl.replace tally k ()\n\
       let scan xs = Par.Pool.map_list_exn (fun x -> bump x) xs\n"
  in
  let manifest = manifest_exn escape_manifest in
  let mods = [ summarize ~lib:"fixesc" ~modname:"Fixesc" src ] in
  let diags = run_typed ~manifest mods in
  check_ids "escape through a callee chain" [ "int/domain-escape" ] diags

let test_escape_closure_local_state_ok () =
  (* State created inside the task is per-call: no cross-domain race. *)
  let src =
    par_stub
    ^ "let sum xs =\n\
      \  Par.Pool.map_list_exn\n\
      \    (fun x -> let acc = ref 0 in acc := x; !acc) xs\n"
  in
  let manifest = manifest_exn escape_manifest in
  let mods = [ summarize ~lib:"fixesc" ~modname:"Fixesc" src ] in
  check_ids "closure-local ref is fine" [] (run_typed ~manifest mods)

(* --- architecture layering --- *)

let edge ?(file = "lib/alib/a.ml") ?(line = 3) e_src e_dst =
  { Srclint.Analysis.e_src; e_dst; e_file = file; e_line = line }

let layering ~manifest ~libs edges =
  Srclint.Analysis.layering ~manifest ~libs edges

let test_layer_violation () =
  let manifest = manifest_exn "layer alib 0\nlayer blib 1" in
  check_ids "upward edge violates the DAG" [ "arch/layer-violation" ]
    (layering ~manifest ~libs:[ "alib"; "blib" ] [ edge "alib" "blib" ]);
  check_ids "downward edge is clean" []
    (layering ~manifest ~libs:[ "alib"; "blib" ] [ edge "blib" "alib" ])

let test_forbidden_dep () =
  let manifest =
    manifest_exn "layer alib 1\nlayer blib 0\nforbid alib blib : decoupled"
  in
  check_ids "rank-legal but forbidden edge" [ "arch/forbidden-dep" ]
    (layering ~manifest ~libs:[ "alib"; "blib" ] [ edge "alib" "blib" ])

let test_layer_cycle () =
  (* dune prevents real cycles, so the detector is pinned on synthetic
     edges; with equal ranks both directions also violate the DAG. *)
  let manifest = manifest_exn "layer alib 0\nlayer blib 0" in
  check_ids "two-lib cycle"
    [ "arch/layer-cycle"; "arch/layer-violation" ]
    (layering ~manifest ~libs:[ "alib"; "blib" ]
       [ edge "alib" "blib";
         edge ~file:"lib/blib/b.ml" ~line:7 "blib" "alib" ]);
  check_ids "acyclic graph is clean" []
    (manifest_exn "layer alib 1\nlayer blib 0"
     |> fun manifest ->
     layering ~manifest ~libs:[ "alib"; "blib" ] [ edge "alib" "blib" ])

let test_undeclared_lib () =
  let manifest = manifest_exn "layer alib 0" in
  check_ids "unranked lib must be placed" [ "arch/undeclared-lib" ]
    (layering ~manifest ~libs:[ "alib"; "blib" ] [])

(* --- the manifest itself --- *)

let test_manifest_parse () =
  let m =
    manifest_exn
      "# comment\n\
       layer geom 0\n\
       forbid ccplace qor : no scoring in kernels\n\
       pure geom : pure\n\
       trust Par : audited\n"
  in
  Alcotest.(check (option int)) "rank" (Some 0)
    (Srclint.Manifest.rank m "geom");
  Alcotest.(check (option string)) "forbid reason"
    (Some "no scoring in kernels")
    (Srclint.Manifest.forbidden m ~src:"ccplace" ~dst:"qor");
  Alcotest.(check bool) "pure" true (Srclint.Manifest.is_pure m "geom");
  Alcotest.(check bool) "trust covers submodules" true
    (Srclint.Manifest.is_trusted m "Par.Pool.map_list");
  Alcotest.(check bool) "trust is component-wise" false
    (Srclint.Manifest.is_trusted m "Parasitic.x")

let test_manifest_malformed () =
  (match Srclint.Manifest.parse_string ~file:"f" "layer geom zero" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "non-integer rank must not parse");
  match Srclint.Manifest.parse_string ~file:"f" "bogus x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown directive must not parse"

let test_manifest_validate () =
  let m = manifest_exn "layer nosuch 0\nlayer geom 0\nlayer geom 1" in
  check_ids "unknown lib and duplicate layer" [ "meta/ccdeps-manifest" ]
    (Srclint.Manifest.validate m ~libs:[ "geom" ]);
  Alcotest.(check int) "one per offence" 2
    (List.length (Srclint.Manifest.validate m ~libs:[ "geom" ]))

(* --- registry + engine wiring --- *)

let test_registry_has_typed_rules () =
  List.iter
    (fun id ->
       Alcotest.(check bool) (id ^ " registered") true
         (List.mem id Srclint.Registry.ids))
    [ "int/taint-wall-clock"; "int/taint-random"; "int/taint-getenv";
      "int/taint-gc"; "int/taint-print"; "int/domain-escape";
      "arch/layer-violation"; "arch/forbidden-dep"; "arch/layer-cycle";
      "arch/undeclared-lib"; "meta/cmt-error"; "meta/ccdeps-manifest" ]

(* The committed .ccdeps parses and places every current sublibrary.
   Under `dune runtest` the cwd is _build/default/test; under
   `dune exec` it is the workspace root. *)
let test_committed_manifest () =
  let root =
    List.find_opt
      (fun r -> Sys.file_exists (Filename.concat r Srclint.Manifest.path))
      [ ".."; "." ]
    |> Option.value ~default:".."
  in
  match Srclint.Manifest.load ~root with
  | Error msg -> Alcotest.failf "committed .ccdeps: %s" msg
  | Ok m ->
    Alcotest.(check string) "diagnostics name .ccdeps" ".ccdeps"
      m.Srclint.Manifest.file;
    Alcotest.(check bool) "manifest is non-empty" true
      (m.Srclint.Manifest.layers <> []);
    List.iter
      (fun lib ->
         Alcotest.(check bool) ("layer for " ^ lib) true
           (Srclint.Manifest.rank m lib <> None))
      [ "geom"; "tech"; "capmodel"; "ccgrid"; "ccplace"; "ccroute";
        "rcnet"; "extract"; "dacmodel"; "verify"; "lvs"; "core"; "qor";
        "telemetry"; "par"; "srclint" ]

(* --- cmt freshness --- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let write ~root path contents =
  let path = Filename.concat root path in
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

(* The implementation .cmt dune leaves for lib/fix/<name>.ml, compiled
   from [root] as dune compiles from _build/default: the compiler
   records the repo-relative source path and the digest of the file. *)
let save_cmt ~root name =
  let src = Printf.sprintf "lib/fix/%s.ml" name in
  let cmt =
    Printf.sprintf "_build/default/lib/fix/.fix.objs/byte/fix__%s.cmt"
      (String.capitalize_ascii name)
  in
  mkdir_p (Filename.concat root (Filename.dirname cmt));
  let cwd = Sys.getcwd () in
  Sys.chdir root;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
  let str =
    Srclint.Typecheck.structure ~file:src
      (In_channel.with_open_bin src In_channel.input_all)
  in
  Clflags.binary_annotations := true;
  Cmt_format.save_cmt cmt
    ("Fix__" ^ String.capitalize_ascii name)
    (Cmt_format.Implementation str) (Some src) (Compmisc.initial_env ())
    None None

let cmt_findings ~root =
  (Srclint.Engine.run ~root ()).Srclint.Engine.diagnostics
  |> List.map (fun (d : Srclint.Diagnostic.t) ->
      let open Srclint.Diagnostic in
      (d.rule.Srclint.Rule.id, d.file, d.detail))

let test_cmt_freshness () =
  let root = Filename.temp_file "ccdeps-cmts" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  write ~root ".ccdeps" "layer fix 0\n";
  write ~root "lib/fix/dune" "(library (name fix))\n";
  List.iter
    (fun name ->
       write ~root ("lib/fix/" ^ name ^ ".ml") "let x = 1\n";
       save_cmt ~root name)
    [ "a"; "b"; "c" ];
  Alcotest.(check (list (triple string string string)))
    "every module built from its source: clean" [] (cmt_findings ~root);
  write ~root "lib/fix/b.ml" "let x = 2\n";
  Sys.remove (Filename.concat root "lib/fix/c.ml");
  write ~root "lib/fix/d.ml" "let x = 4\n";
  write ~root ".ccdeps" "layer fix 0\nlayer unbuilt 1\n";
  write ~root "lib/unbuilt/dune" "(library (name unbuilt))\n";
  write ~root "lib/unbuilt/e.ml" "let x = 5\n";
  Alcotest.(check (list (triple string string string)))
    "stale, gone, missing, and one finding for an unbuilt library"
    [ ( "meta/cmt-error", "lib/fix/b.ml",
        "stale .cmt: the source changed since it was built; run dune build" );
      ( "meta/cmt-error", "lib/fix/c.ml",
        "the .cmt's source is gone; run dune build" );
      ("meta/cmt-error", "lib/fix/d.ml", "no loadable .cmt; run dune build");
      ( "meta/cmt-error", "lib/unbuilt",
        "no implementation .cmt under _build/default/lib/unbuilt; run dune \
         build" ) ]
    (cmt_findings ~root)

let () =
  Alcotest.run "ccdeps"
    [ ( "taint",
        [ Alcotest.test_case "chain" `Quick test_taint_chain;
          Alcotest.test_case "clean" `Quick test_taint_clean;
          Alcotest.test_case "impure-exempt" `Quick
            test_taint_impure_lib_exempt;
          Alcotest.test_case "trust-boundary" `Quick
            test_taint_trust_boundary;
          Alcotest.test_case "kinds" `Quick test_taint_kinds ] );
      ( "escape",
        [ Alcotest.test_case "capture" `Quick test_escape_capture;
          Alcotest.test_case "clean" `Quick test_escape_clean;
          Alcotest.test_case "via-callee" `Quick test_escape_via_callee;
          Alcotest.test_case "closure-local-ok" `Quick
            test_escape_closure_local_state_ok ] );
      ( "layering",
        [ Alcotest.test_case "violation" `Quick test_layer_violation;
          Alcotest.test_case "forbidden" `Quick test_forbidden_dep;
          Alcotest.test_case "cycle" `Quick test_layer_cycle;
          Alcotest.test_case "undeclared" `Quick test_undeclared_lib ] );
      ( "manifest",
        [ Alcotest.test_case "parse" `Quick test_manifest_parse;
          Alcotest.test_case "malformed" `Quick test_manifest_malformed;
          Alcotest.test_case "validate" `Quick test_manifest_validate;
          Alcotest.test_case "committed" `Quick test_committed_manifest ] );
      ( "wiring",
        [ Alcotest.test_case "registry" `Quick test_registry_has_typed_rules;
          Alcotest.test_case "cmt-freshness" `Quick test_cmt_freshness ] ) ]
