(* Tests for the source-level static analyzer (cclint): every rule pinned
   by a violating and a clean fixture snippet, zone scoping, the
   shadowed-[compare] exemption, allowlist semantics (suppression, stale
   entries, missing justifications, unknown rules) and the JSON report
   roundtrip through the Telemetry.Json parser. *)

let lib_path = "lib/fake/kernel.ml"

let fired path src =
  Diag.rule_ids (Srclint.Engine.check_string ~path src)

(* [check_fired what expected path src] pins the EXACT rule-id set a
   snippet fires — not just membership — so a new rule that starts
   over-matching old fixtures fails loudly. *)
let check_fired what expected path src =
  Alcotest.(check (list string)) what expected (fired path src)

(* --- determinism rules --- *)

let test_wall_clock () =
  check_fired "gettimeofday in lib" [ "det/wall-clock" ] lib_path
    "let now () = Unix.gettimeofday ()";
  check_fired "Sys.time in lib" [ "det/wall-clock" ] lib_path
    "let t () = Sys.time ()";
  check_fired "bench may time" [] "bench/main.ml"
    "let now () = Unix.gettimeofday ()";
  check_fired "monotonic clock is fine" [] lib_path
    "let t () = Telemetry.Clock.now_ns ()"

let test_random_self_init () =
  check_fired "self_init in lib" [ "det/random-self-init" ] lib_path
    "let () = Random.self_init ()";
  (* ambient-random is lib/bin-scoped, self-init fires everywhere *)
  check_fired "self_init in tests too" [ "det/random-self-init" ]
    "test/test_fake.ml" "let () = Random.self_init ()";
  check_fired "explicit state seeding" [] lib_path
    "let st = Random.State.make [| 42 |]"

let test_ambient_random () =
  check_fired "global Random.int" [ "det/ambient-random" ] lib_path
    "let roll () = Random.int 6";
  check_fired "global Random.float in bin" [ "det/ambient-random" ]
    "bin/tool.ml" "let x () = Random.float 1.";
  check_fired "Random.State is explicit" [] lib_path
    "let roll st = Random.State.int st 6"

let test_getenv () =
  check_fired "getenv in lib" [ "det/getenv" ] lib_path
    "let v () = Sys.getenv_opt \"HOME\"";
  check_fired "getenv at the CLI boundary" [] "bin/tool.ml"
    "let v () = Sys.getenv_opt \"HOME\""

let test_gc_mutation () =
  check_fired "Gc.compact in lib" [ "det/gc-mutation" ] lib_path
    "let shrink () = Gc.compact ()";
  check_fired "Gc.set in bin" [ "det/gc-mutation" ] "bin/tool.ml"
    "let tune () = Gc.set { (Gc.get ()) with Gc.space_overhead = 200 }";
  check_fired "Gc.full_major in lib" [ "det/gc-mutation" ] lib_path
    "let settle () = Gc.full_major ()";
  (* the accounting layer itself is the one sanctioned mutator *)
  check_fired "lib/telemetry is exempt" [] "lib/telemetry/fake.ml"
    "let settle () = Gc.full_major ()";
  (* benches may pin heap state between measurements *)
  check_fired "bench may mutate" [] "bench/main.ml"
    "let quiesce () = Gc.full_major ()";
  check_fired "read-only probes are fine" [] lib_path
    "let heap () = (Gc.quick_stat ()).Gc.heap_words"

(* --- domain-safety rules --- *)

let test_global_ref () =
  check_fired "top-level ref" [ "domain/global-ref" ] lib_path
    "let cache = ref []";
  check_fired "ref inside a function is per call" [] lib_path
    "let make () = ref []";
  check_fired "DLS initialiser ref is per domain" []
    "lib/telemetry/fake.ml"
    "let key = Domain.DLS.new_key (fun () -> ref [])"

let test_global_mutable () =
  check_fired "top-level Hashtbl" [ "domain/global-mutable" ] lib_path
    "let table = Hashtbl.create 16";
  check_fired "lazy merely defers the shared allocation"
    [ "domain/global-mutable" ] lib_path
    "let table = lazy (Hashtbl.create 16)";
  check_fired "nested module globals count too"
    [ "domain/global-mutable" ] lib_path
    "module Inner = struct let q = Queue.create () end";
  check_fired "per-call allocation is fine" [] lib_path
    "let fresh () = Hashtbl.create 16"

let test_dls () =
  check_fired "DLS outside telemetry/par" [ "domain/dls" ]
    "lib/qor/fake.ml" "let v k = Domain.DLS.get k";
  check_fired "DLS in par is sanctioned" [] "lib/par/fake.ml"
    "let v k = Domain.DLS.get k"

let test_spawn () =
  check_fired "Domain.spawn outside par" [ "domain/spawn" ] lib_path
    "let d f = Domain.spawn f";
  check_fired "Domain.spawn in bin too" [ "domain/spawn" ] "bin/tool.ml"
    "let d f = Domain.spawn f";
  check_fired "the pool library owns spawning" [] "lib/par/fake.ml"
    "let d f = Domain.spawn f";
  check_fired "tests may spawn for harness setup" [] "test/test_fake.ml"
    "let d f = Domain.spawn f";
  check_fired "joins and other Domain calls are fine" [] lib_path
    "let j d = Domain.join d"

(* --- error-handling rules --- *)

let test_catchall_swallow () =
  check_fired "with _ -> () swallows" [ "err/catchall-swallow" ] lib_path
    "let quiet f = try f () with _ -> ()";
  check_fired "binding the exn still swallows" [ "err/catchall-swallow" ]
    lib_path "let quiet f = try f () with e -> ignore e";
  check_fired "specific exception is deliberate" [] lib_path
    "let quiet f = try f () with Failure _ -> ()";
  check_fired "catch-all that re-raises is fine" [] lib_path
    "let logged f = try f () with e -> print_stats (); raise e";
  check_fired "guarded handler is not a catch-all" [] lib_path
    "let quiet f = try f () with e when is_benign e -> ()"

let test_assert_false () =
  check_fired "assert false in lib" [ "err/assert-false" ] lib_path
    "let unreachable () = assert false";
  check_fired "assert of a condition is fine" [] lib_path
    "let check x = assert (x > 0)"

let test_exit_in_lib () =
  check_fired "exit in lib" [ "err/exit-in-lib" ] lib_path
    "let die () = exit 1";
  check_fired "exit in bin is its job" [] "bin/tool.ml"
    "let die () = exit 1"

(* --- hygiene rules --- *)

let test_poly_compare () =
  check_fired "Stdlib.compare" [ "hyg/poly-compare" ] lib_path
    "let sort l = List.sort Stdlib.compare l";
  check_fired "bare compare" [ "hyg/poly-compare" ] lib_path
    "let sort l = List.sort compare l";
  check_fired "a file defining compare uses its own" [] lib_path
    "let compare a b = Int.compare a.rank b.rank\n\
     let sort l = List.sort compare l";
  check_fired "typed comparators" [] lib_path
    "let sort l = List.sort Float.compare l"

let test_float_equality () =
  check_fired "(=) against a float literal" [ "hyg/float-equality" ]
    lib_path "let zero x = x = 0.";
  check_fired "(<>) and negated literals too" [ "hyg/float-equality" ]
    lib_path "let nz x = x <> -1.5";
  check_fired "Float.equal" [] lib_path "let zero x = Float.equal x 0.";
  check_fired "int literals are fine" [] lib_path "let zero x = x = 0"

let test_print_in_lib () =
  check_fired "print_endline in lib" [ "hyg/print-in-lib" ] lib_path
    "let hello () = print_endline \"hi\"";
  check_fired "Printf.printf in lib" [ "hyg/print-in-lib" ] lib_path
    "let hello () = Printf.printf \"hi\"";
  check_fired "printing is the CLI's job" [] "bin/tool.ml"
    "let hello () = print_endline \"hi\"";
  check_fired "formatter-directed output is fine" [] lib_path
    "let pp ppf x = Format.fprintf ppf \"%d\" x"

let test_obj_magic () =
  check_fired "Obj.magic in lib" [ "hyg/obj-magic" ] lib_path
    "let cast x = Obj.magic x";
  (* hygiene rules are lib-scoped except obj-magic, which fires anywhere *)
  check_fired "Obj.magic in tests too" [ "hyg/obj-magic" ]
    "test/test_fake.ml" "let cast x = Obj.magic x";
  check_fired "no Obj" [] lib_path "let id x = x"

(* --- parse errors --- *)

let test_parse_error () =
  check_fired "garbage input" [ "meta/parse-error" ] lib_path
    "let x = ((";
  check_fired "empty file parses" [] lib_path ""

(* --- registry --- *)

let test_registry () =
  let ids = Diag.ids Srclint.Registry.all in
  Alcotest.(check (list string)) "sorted and unique"
    (List.sort_uniq String.compare ids)
    ids;
  Alcotest.(check bool) "at least 12 source rules" true
    (List.length
       (List.filter
          (fun (r : Diag.rule) -> Diag.family r.Diag.id <> "meta")
          Srclint.Registry.all.Diag.rules)
     >= 12);
  List.iter
    (fun (r : Diag.rule) ->
       Alcotest.(check bool)
         (r.Diag.id ^ " documented")
         true
         (String.length r.Diag.doc > 20))
    Srclint.Registry.all.Diag.rules

let test_rules_filter () =
  let m patterns id = Diag.matches ~patterns id in
  Alcotest.(check bool) "exact id" true
    (m [ "det/wall-clock" ] "det/wall-clock");
  Alcotest.(check bool) "family prefix" true (m [ "det" ] "det/wall-clock");
  Alcotest.(check bool) "family glob" true (m [ "hyg/*" ] "hyg/poly-compare");
  Alcotest.(check bool) "no cross-family match" false
    (m [ "det" ] "hyg/poly-compare");
  Alcotest.(check (list string)) "typo detection" [ "nosuch" ]
    (Diag.selects_nothing Srclint.Registry.all [ "det"; "nosuch" ])

(* --- allowlist --- *)

let parse_allowlist s =
  match Srclint.Allowlist.parse_string ~file:".cclint" s with
  | Ok a -> a
  | Error msg -> Alcotest.fail msg

let run_with_allowlist allowlist path src =
  let diags = Srclint.Engine.check_string ~path src in
  Srclint.Engine.apply_allowlist allowlist diags

let test_allowlist_suppresses () =
  let allowlist =
    parse_allowlist
      "# comment\n\
       det/wall-clock lib/fake/kernel.ml : capture time is the payload\n"
  in
  let kept, sups =
    run_with_allowlist allowlist lib_path "let now () = Unix.gettimeofday ()"
  in
  Alcotest.(check (list string)) "finding suppressed, no meta" []
    (Diag.rule_ids kept);
  Alcotest.(check int) "one entry, one match" 1
    (List.length (List.filter (fun s -> s.Srclint.Engine.matched = 1) sups))

let test_allowlist_stale () =
  let allowlist =
    parse_allowlist
      "det/wall-clock lib/fake/other.ml : this violation no longer exists\n"
  in
  let kept, _ = run_with_allowlist allowlist lib_path "let id x = x" in
  Alcotest.(check (list string)) "stale entry is itself an error"
    [ "meta/stale-suppression" ]
    (Diag.rule_ids kept)

let test_allowlist_missing_justification () =
  let allowlist =
    parse_allowlist "det/wall-clock lib/fake/kernel.ml\n" in
  let kept, _ =
    run_with_allowlist allowlist lib_path "let now () = Unix.gettimeofday ()"
  in
  Alcotest.(check (list string)) "suppressed but flagged"
    [ "meta/missing-justification" ]
    (Diag.rule_ids kept)

let test_allowlist_unknown_rule () =
  let allowlist =
    parse_allowlist "det/no-such-rule lib/fake/kernel.ml : typo\n" in
  let kept, _ = run_with_allowlist allowlist lib_path "let id x = x" in
  Alcotest.(check (list string)) "typos cannot suppress silently"
    [ "meta/unknown-rule" ]
    (Diag.rule_ids kept)

let test_allowlist_duplicate () =
  let allowlist =
    parse_allowlist
      "det/wall-clock lib/fake/kernel.ml : capture time is the payload\n\
       det/wall-clock lib/fake/kernel.ml : duplicate of the entry above\n"
  in
  let kept, sups =
    run_with_allowlist allowlist lib_path "let now () = Unix.gettimeofday ()"
  in
  (* The later duplicate gets exactly one deterministic diagnostic — not
     a coin-flip between duplicate and stale. *)
  Alcotest.(check (list string)) "duplicate entry is itself an error"
    [ "meta/duplicate-suppression" ]
    (Diag.rule_ids kept);
  (match sups with
   | [ first; second ] ->
     Alcotest.(check int) "first entry matches" 1
       first.Srclint.Engine.matched;
     Alcotest.(check int) "duplicate can never match" 0
       second.Srclint.Engine.matched
   | _ -> Alcotest.fail "expected two suppression records");
  let dup =
    List.find
      (fun (d : Diag.t) -> d.Diag.rule.Diag.id = "meta/duplicate-suppression")
      kept
  in
  Alcotest.(check int) "anchored at the duplicate's line" 2 dup.Diag.line

let test_allowlist_malformed () =
  match Srclint.Allowlist.parse_string ~file:".cclint" "just-one-token\n" with
  | Ok _ -> Alcotest.fail "malformed entry accepted"
  | Error msg ->
    Alcotest.(check bool) "names the line" true
      (String.length msg > 0 && String.contains msg '1')

(* --- committed .cclint discipline --- *)

let test_committed_allowlist_is_justified () =
  (* The allowlist the repo actually ships must parse, and every entry
     must carry a justification long enough to mean something. *)
  let path = "../.cclint" in
  if Sys.file_exists path then begin
    match Srclint.Allowlist.load path with
    | Error msg -> Alcotest.fail msg
    | Ok a ->
      List.iter
        (fun (e : Srclint.Allowlist.entry) ->
           Alcotest.(check bool)
             (e.Srclint.Allowlist.rule_id ^ " on "
              ^ e.Srclint.Allowlist.path ^ " justified")
             true
             (String.length e.Srclint.Allowlist.justification > 20))
        a.Srclint.Allowlist.entries
  end

(* --- JSON report roundtrip --- *)

let test_json_roundtrip () =
  let diags =
    Srclint.Engine.check_string ~path:lib_path
      "let now () = Unix.gettimeofday ()\nlet cache = ref []"
  in
  let allowlist =
    parse_allowlist "domain/global-ref lib/fake/kernel.ml : test fixture\n"
  in
  let diagnostics, suppressions =
    Srclint.Engine.apply_allowlist allowlist diags
  in
  let result =
    { Srclint.Engine.files_scanned = 1;
      diagnostics = Diag.sort diagnostics;
      suppressions }
  in
  match Telemetry.Json.parse (Srclint.Report.json result) with
  | Error msg -> Alcotest.fail ("report is not valid JSON: " ^ msg)
  | Ok j ->
    let num name =
      match
        Option.bind
          (Option.bind (Telemetry.Json.member "summary" j)
             (Telemetry.Json.member name))
          Telemetry.Json.to_float
      with
      | Some v -> int_of_float v
      | None -> Alcotest.fail ("summary." ^ name ^ " missing")
    in
    Alcotest.(check int) "errors" 1 (num "errors");
    Alcotest.(check int) "suppressed" 1 (num "suppressed");
    Alcotest.(check int) "files_scanned" 1 (num "files_scanned");
    let rule_of_first =
      match
        Option.bind (Telemetry.Json.member "diagnostics" j)
          Telemetry.Json.to_list
      with
      | Some (first :: _) ->
        Option.bind (Telemetry.Json.member "rule" first)
          Telemetry.Json.to_str
      | _ -> None
    in
    Alcotest.(check (option string)) "diagnostic rule id"
      (Some "det/wall-clock") rule_of_first

(* a located finding prints line and column; a file-scoped one (line 0)
   prints its path alone in text and keeps both fields in JSON *)
let test_text_rendering () =
  let rule id = Option.get (Diag.find Srclint.Registry.all id) in
  let located =
    Diag.make ~loc:"lib/x.ml" ~line:72 ~col:18 (rule "det/wall-clock")
      "wall clock"
  and file_scoped =
    Diag.make ~loc:"lib/capmodel" (rule "meta/cmt-error")
      "no implementation .cmt"
  in
  let render d = Format.asprintf "%a" Diag.pp d in
  Alcotest.(check string) "located" "error[det/wall-clock] lib/x.ml:72:18: wall clock"
    (render located);
  Alcotest.(check string) "file-scoped"
    "error[meta/cmt-error] lib/capmodel: no implementation .cmt" (render file_scoped);
  let result =
    { Srclint.Engine.files_scanned = 0; diagnostics = [ file_scoped ]; suppressions = [] }
  in
  match Telemetry.Json.parse (Srclint.Report.json result) with
  | Error msg -> Alcotest.fail ("report is not valid JSON: " ^ msg)
  | Ok j ->
    let field name =
      match Option.bind (Telemetry.Json.member "diagnostics" j) Telemetry.Json.to_list with
      | Some [ d ] -> Option.bind (Telemetry.Json.member name d) Telemetry.Json.to_float
      | _ -> None
    in
    Alcotest.(check (option (float 0.))) "JSON line" (Some 0.) (field "line");
    Alcotest.(check (option (float 0.))) "JSON col" (Some 0.) (field "col")

let test_rules_json () =
  match Telemetry.Json.parse (Srclint.Report.json_rules ()) with
  | Error msg -> Alcotest.fail ("rule catalogue is not valid JSON: " ^ msg)
  | Ok j ->
    let n =
      match
        Option.bind (Telemetry.Json.member "rules" j) Telemetry.Json.to_list
      with
      | Some l -> List.length l
      | None -> 0
    in
    Alcotest.(check int) "catalogue size"
      (List.length Srclint.Registry.all.Diag.rules) n

let () =
  Alcotest.run "srclint"
    [ ( "determinism",
        [ Alcotest.test_case "wall clock" `Quick test_wall_clock;
          Alcotest.test_case "random self-init" `Quick test_random_self_init;
          Alcotest.test_case "ambient random" `Quick test_ambient_random;
          Alcotest.test_case "getenv" `Quick test_getenv;
          Alcotest.test_case "gc mutation" `Quick test_gc_mutation ] );
      ( "domain safety",
        [ Alcotest.test_case "global ref" `Quick test_global_ref;
          Alcotest.test_case "global mutable" `Quick test_global_mutable;
          Alcotest.test_case "DLS scope" `Quick test_dls;
          Alcotest.test_case "spawn scope" `Quick test_spawn ] );
      ( "error handling",
        [ Alcotest.test_case "catch-all swallow" `Quick test_catchall_swallow;
          Alcotest.test_case "assert false" `Quick test_assert_false;
          Alcotest.test_case "exit in lib" `Quick test_exit_in_lib ] );
      ( "hygiene",
        [ Alcotest.test_case "poly compare" `Quick test_poly_compare;
          Alcotest.test_case "float equality" `Quick test_float_equality;
          Alcotest.test_case "print in lib" `Quick test_print_in_lib;
          Alcotest.test_case "Obj.magic" `Quick test_obj_magic ] );
      ( "engine",
        [ Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "rules filter" `Quick test_rules_filter ] );
      ( "allowlist",
        [ Alcotest.test_case "suppression" `Quick test_allowlist_suppresses;
          Alcotest.test_case "stale entry" `Quick test_allowlist_stale;
          Alcotest.test_case "missing justification" `Quick
            test_allowlist_missing_justification;
          Alcotest.test_case "unknown rule" `Quick test_allowlist_unknown_rule;
          Alcotest.test_case "duplicate entry" `Quick test_allowlist_duplicate;
          Alcotest.test_case "malformed line" `Quick test_allowlist_malformed;
          Alcotest.test_case "committed entries justified" `Quick
            test_committed_allowlist_is_justified ] );
      ( "reports",
        [ Alcotest.test_case "JSON roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "text rendering" `Quick test_text_rendering;
          Alcotest.test_case "rule catalogue JSON" `Quick test_rules_json ] )
    ]
