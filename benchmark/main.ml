(* The repository benchmark: four closed-loop workloads driven through
   the libraries' public entry points, every op's outputs checked.

     dune exec benchmark/main.exe -- [--workload W]... [--seed N]
       [--seconds S] [--trace 0|1|PREFIX] [--out FILE]
     dune exec benchmark/main.exe -- compare BASE.jsonl NEW.jsonl
     dune exec benchmark/main.exe -- --bless
     dune exec benchmark/main.exe -- --smoke

   Run it from the repository root: it reads BENCHMARK.json and
   benchmark/expected.json.  One workload runs in this process; several
   (the default: all four) run one after another, each in its own child
   process.  The last line of standard output is the run's result as one
   JSON object.  benchmark/README.md describes workloads and metrics. *)

module Json = Telemetry.Json

let default_seed = 1
let expected_path = "benchmark/expected.json"
let spec_path = "BENCHMARK.json"

let int x = Json.Num (float_of_int x)

let metrics_json ?(with_n = false) metrics =
  Json.Obj
    (List.map
       (fun (m : Runner.metric) ->
          ( m.name,
            Json.Obj
              ([ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]
               @ if with_n then [ ("n", int m.n) ] else []) ))
       metrics)

let result_fields ?with_n (r : Runner.result) =
  [ ("correct", Json.Bool (r.failed = 0));
    ("attempted", int r.attempted);
    ("failed", int r.failed);
    ("metrics", metrics_json ?with_n r.metrics) ]

let print_result (w : Workload.t) ~seed ~trace (r : Runner.result) =
  Printf.printf
    "# %s seed=%d trace=%d nproc=%d ops=%d attempted=%d failed=%d \
     error_rate=%g\n"
    w.name seed (Bool.to_int trace) (Par.Jobs.auto ()) r.ops
    r.attempted r.failed
    (float_of_int r.failed /. float_of_int (Int.max 1 r.attempted));
  let line tag (m : Runner.metric) =
    Printf.printf "%-34s %14.6g %-12s n=%d%s\n" m.name m.value m.unit_ m.n tag
  in
  List.iter (line "") r.metrics;
  List.iter (line "  (info)") r.info;
  print_endline (Json.to_string (Json.Obj (result_fields r)))

(* --out: one JSON line per run, with what [compare] and a later reader
   need to interpret it. *)
let append_out path (w : Workload.t) ~seed ~trace (r : Runner.result) =
  let record =
    Json.Obj
      ([ ("workload", Json.Str w.name); ("seed", int seed);
         ("trace", int (Bool.to_int trace)); ("nproc", int (Par.Jobs.auto ()));
         ("ocaml", Json.Str Sys.ocaml_version) ]
       @ result_fields ~with_n:true r
       @ [ ("info", metrics_json ~with_n:true r.info) ])
  in
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
    (fun oc -> output_string oc (Json.to_string record ^ "\n"))

let run_one (w : Workload.t) ~size ~seed ~seconds ~min_ops ~trace ~trace_out refs =
  if trace then
    Runner.traced w ~size ~seed ~seconds ~min_ops refs
      ~trace_out:(Option.map (fun p -> Printf.sprintf "%s.%s.json" p w.name) trace_out)
  else
    Runner.untraced w ~size ~seed ~seconds ~min_ops refs
      ~probe_args:
        [ "--setup-probe"; "--workload"; w.name; "--seed"; string_of_int seed;
          "--size"; size.label ]

(* Each workload of a multi-workload run in its own process, so set-up
   time and memory are per workload. *)
let run_children names ~args =
  let exe = Sys.executable_name in
  List.fold_left
    (fun ok name ->
       let argv = Array.of_list (exe :: "--workload" :: name :: args) in
       let pid = Unix.create_process exe argv Unix.stdin Unix.stdout Unix.stderr in
       match Unix.waitpid [] pid with
       | _, Unix.WEXITED 0 -> ok
       | _, (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _) -> false)
    true names

let bless () =
  let designs =
    List.concat_map
      (fun (w : Workload.t) -> w.designs Workload.full @ w.designs Workload.smoke)
      Workload.all
    |> List.map (fun d -> (Workload.key d, d))
    |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
  in
  let entries =
    List.map
      (fun (key, (d : Workload.design)) ->
         let r = Ccdac.Flow.run ~bits:d.bits d.style in
         let s = Expected.of_flow r in
         if s.via_cuts <> Expected.via_cuts r.layout then
           failwith (key ^ ": layout and extraction disagree on via cuts");
         (key, s))
      designs
  in
  let montecarlo =
    List.map
      (fun (size : Workload.size) ->
         let r = Workload.mc_input size in
         { Expected.mc_bits = size.mc_bits;
           mc_trials = size.mc_trials;
           mc_seed = Workload.mc_seed ~seed:default_seed 0;
           stats = Workload.mc_run size r ~seed:default_seed ~jobs:1 0 })
      [ Workload.full; Workload.smoke ]
  in
  Expected.save expected_path { designs = entries; montecarlo };
  Printf.printf "wrote %s: %d designs, %d Monte-Carlo references\n" expected_path
    (List.length entries) (List.length montecarlo)

(* [compare] on made-up runs: a set against itself is unchanged
   everywhere, and a NEW set whose runs of one workload failed every op
   (so their times read 0) regresses on that workload only. *)
let check_compare (spec : Spec.t) problem =
  let line workload seed ~failed value =
    Json.to_string
      (Json.Obj
         [ ("workload", Json.Str workload); ("seed", int seed); ("trace", int 0);
           ("failed", int failed);
           ("metrics",
            Json.Obj
              (List.map
                 (fun (d : Spec.metric) -> (d.name, Json.Obj [ ("value", Json.Num value) ]))
                 spec.end_to_end)) ])
  in
  let set ~broken =
    List.concat_map
      (fun w ->
         List.init 10 (fun i ->
             let seed = i + 1 in
             if String.equal w broken then line w seed ~failed:3 0.
             else line w seed ~failed:0 (1. +. (0.001 *. float_of_int seed))))
      spec.workloads
    |> Compare.runs_of_lines ~what:"smoke"
  in
  let base = set ~broken:"" and broken = List.hd spec.workloads in
  let expect news verdict_of =
    List.iter
      (fun (r : Compare.row) ->
         let want = verdict_of r.workload in
         if not (Option.equal String.equal r.verdict (Some want)) then
           problem
             (Printf.sprintf "compare: %s %s is %s, expected %s" r.workload r.metric.name
                (Option.value r.verdict ~default:"missing") want))
      (Compare.rows ~spec base news)
  in
  expect base (fun _ -> "unchanged");
  expect (set ~broken) (fun w -> if String.equal w broken then "regressed" else "unchanged")

(* The tier-1 smoke test: every workload, untraced and traced, at 6 bits
   with 3 ops; no op may fail (the traced run includes the faithfulness
   check) and exactly the metrics BENCHMARK.json declares are emitted,
   each with its declared unit.  Then [check_compare]. *)
let smoke () =
  let spec = Spec.load spec_path and refs = Expected.load expected_path in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let names = List.map (fun (w : Workload.t) -> w.name) Workload.all in
  if not (List.equal String.equal names spec.workloads) then
    problem "BENCHMARK.json workloads differ from the harness's";
  let check (w : Workload.t) ~trace (r : Runner.result) =
    if r.failed > 0 then problem "%s trace=%b: %d ops failed" w.name trace r.failed;
    let declared = if trace then spec.per_layer else spec.end_to_end in
    let emitted = List.map (fun (m : Runner.metric) -> (m.name, m.unit_)) r.metrics in
    List.iter
      (fun (d : Spec.metric) ->
         match List.assoc_opt d.name emitted with
         | None -> problem "%s trace=%b: %s not emitted" w.name trace d.name
         | Some u when not (String.equal u d.unit_) ->
           problem "%s: %s emitted in %s, declared %s" w.name d.name u d.unit_
         | Some _ -> ())
      declared;
    List.iter
      (fun (name, _) ->
         if not (List.exists (fun (d : Spec.metric) -> String.equal d.name name) declared)
         then problem "%s: %s is not declared in BENCHMARK.json" w.name name)
      emitted
  in
  List.iter
    (fun (w : Workload.t) ->
       List.iter
         (fun trace ->
            match
              run_one w ~size:Workload.smoke ~seed:default_seed ~seconds:0. ~min_ops:3
                ~trace ~trace_out:None refs
            with
            | r -> check w ~trace r
            | exception e ->
              problem "%s trace=%b: %s" w.name trace (Printexc.to_string e))
         [ false; true ])
    Workload.all;
  check_compare spec (problem "%s");
  List.iter (fun p -> prerr_endline ("benchmark smoke: " ^ p)) (List.rev !problems);
  if List.is_empty !problems then 0 else 1

let main () =
  let workloads = ref [] and seed = ref default_seed and seconds = ref None
  and trace = ref "0" and out = ref None
  and size = ref Workload.full and mode = ref `Run in
  let specs =
    [ ("--workload", Arg.String (fun w -> workloads := !workloads @ [ w ]),
       "W  run workload W (repeatable; default: all)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s),
       "S  seconds one run measures (default: run_seconds in BENCHMARK.json)");
      ("--trace", Arg.Set_string trace,
       "0|1|PREFIX  0: the end-to-end run (default); 1: the traced per-layer run; \
        PREFIX: the traced run, writing its spans as Chrome-trace JSON to \
        PREFIX.<workload>.json");
      ("--out", Arg.String (fun f -> out := Some f), "FILE  append each result as a JSON line");
      ("--bless", Arg.Unit (fun () -> mode := `Bless), " rewrite benchmark/expected.json");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " the quick self-test run by dune runtest");
      ("--size",
       Arg.Symbol ([ "full"; "smoke" ],
                   fun s -> size := if String.equal s "smoke" then Workload.smoke else Workload.full),
       " input size (internal)");
      ("--setup-probe", Arg.Unit (fun () -> mode := `Probe), " set-up probe child (internal)") ]
  in
  let usage = "main.exe [options] | main.exe compare BASE NEW" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let traced, trace_out =
    match !trace with "0" -> (false, None) | "1" -> (true, None) | prefix -> (true, Some prefix)
  in
  let seconds () =
    match !seconds with Some s -> s | None -> (Spec.load spec_path).run_seconds
  in
  let names =
    match !workloads with
    | [] -> List.map (fun (w : Workload.t) -> w.name) Workload.all
    | ws -> ws
  in
  let workload name =
    match Workload.find name with
    | Some w -> w
    | None -> raise (Arg.Bad ("unknown workload " ^ name))
  in
  match (!mode, names) with
  | `Bless, _ -> bless (); 0
  | `Smoke, _ -> smoke ()
  | `Probe, [ name ] ->
    let w = workload name in
    let inst = w.prepare !size ~seed:!seed (Expected.load expected_path) in
    inst.warmup ();
    0
  | `Probe, _ -> raise (Arg.Bad "--setup-probe takes one --workload")
  | `Run, [ name ] ->
    let w = workload name in
    let r =
      run_one w ~size:!size ~seed:!seed ~seconds:(seconds ()) ~min_ops:1 ~trace:traced
        ~trace_out (Expected.load expected_path)
    in
    print_result w ~seed:!seed ~trace:traced r;
    Option.iter (fun path -> append_out path w ~seed:!seed ~trace:traced r) !out;
    if r.failed = 0 then 0 else 1
  | `Run, names ->
    List.iter (fun n -> ignore (workload n)) names;
    let args =
      [ "--seed"; string_of_int !seed; "--seconds"; Printf.sprintf "%.17g" (seconds ());
        "--trace"; !trace; "--size"; !size.label ]
      @ match !out with Some f -> [ "--out"; f ] | None -> []
    in
    if run_children names ~args then 0 else 1

let () =
  Par.Jobs.set_default 1;
  (* The telemetry metric catalogue is a lazy table, and forcing it from
     two pool domains at once raises CamlinternalLazy.Undefined: the first
     pooled Flow.run of a process can fail.  Force it here, serially,
     before any op. *)
  ignore (Telemetry.Registry.find "flow/runs_total");
  match Array.to_list Sys.argv with
  | [ _; "compare"; base; news ] -> exit (Compare.main ~spec:(Spec.load spec_path) base news)
  | _ :: "compare" :: _ ->
    prerr_endline "usage: main.exe compare BASE.jsonl NEW.jsonl";
    exit 2
  | _ ->
    (match main () with
     | code -> exit code
     | exception Arg.Bad msg ->
       prerr_endline ("benchmark: " ^ msg);
       exit 2
     | exception (Failure msg | Sys_error msg) ->
       prerr_endline ("benchmark: " ^ msg);
       exit 2
     | exception Expected.Mismatch msg ->
       prerr_endline ("benchmark: output check failed: " ^ msg);
       exit 1)
