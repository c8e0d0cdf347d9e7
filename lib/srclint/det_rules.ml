open Parsetree

let wall_clock =
  Diag.rule ~id:"det/wall-clock" ~severity:Diag.Error
    ~doc:
      "Library code must not read the wall clock (Unix.gettimeofday, \
       Sys.time, ...); use Telemetry.Clock for durations or thread a \
       timestamp in from the caller."

let random_self_init =
  Diag.rule ~id:"det/random-self-init" ~severity:Diag.Error
    ~doc:
      "Random.self_init seeds from ambient entropy and destroys \
       reproducibility everywhere, tests included; seed explicitly \
       (Par.Rng substreams, Random.State.make)."

let ambient_random =
  Diag.rule ~id:"det/ambient-random" ~severity:Diag.Error
    ~doc:
      "The global Random state is shared across domains and \
       schedule-dependent; use Random.State values derived from Par.Rng \
       substreams instead."

let getenv =
  Diag.rule ~id:"det/getenv" ~severity:Diag.Warning
    ~doc:
      "Reading the environment makes library behaviour ambient; resolve \
       configuration at the CLI boundary and pass it down (Par.Jobs owns \
       the one sanctioned knob)."

let gc_mutation =
  Diag.rule ~id:"det/gc-mutation" ~severity:Diag.Error
    ~doc:
      "Mutating the GC (Gc.set, Gc.compact, Gc.full_major, ...) from \
       library or CLI code changes process-wide collection scheduling and \
       skews Telemetry.Memory accounting for every other caller; only \
       lib/telemetry may touch it, and benches/tests stay exempt.  \
       Read-only probes (Gc.quick_stat, Gc.minor_words) are fine."

let rules = [ wall_clock; random_self_init; ambient_random; getenv;
              gc_mutation ]

let wall_clock_idents =
  [ "Unix.gettimeofday"; "Unix.time"; "Unix.localtime"; "Unix.gmtime";
    "Unix.mktime"; "Sys.time" ]

let self_init_idents = [ "Random.self_init"; "Random.State.make_self_init" ]

let getenv_idents = [ "Sys.getenv"; "Sys.getenv_opt"; "Unix.getenv" ]

(* GC *mutators* only — Gc.quick_stat / Gc.minor_words / Gc.stat are
   read-only and deliberately absent. *)
let gc_mutation_idents =
  [ "Gc.set"; "Gc.compact"; "Gc.full_major"; "Gc.major"; "Gc.minor";
    "Gc.major_slice" ]

(* [Random.int], [Random.float], ... — any direct use of the implicit
   global generator.  [Random.State.*] carries its state explicitly and is
   fine (that is what Par.Rng hands out). *)
let is_ambient_random lid =
  match lid with
  | Longident.Ldot (Longident.Lident "Random", member) -> member <> "State"
  | _ -> false

let check (src : Source.t) =
  let out = ref [] in
  let emit rule loc name =
    let line, col = Source.line_col loc in
    out :=
      Diag.makef ~loc:src.Source.path ~line ~col rule "use of %s" name
      :: !out
  in
  Source.iter_exprs src.Source.ast (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } ->
        let name = Source.ident_name txt in
        let loc = e.pexp_loc in
        if List.mem name self_init_idents then emit random_self_init loc name
        else if src.Source.zone = Source.Lib && List.mem name wall_clock_idents
        then emit wall_clock loc name
        else if
          (src.Source.zone = Source.Lib || src.Source.zone = Source.Bin)
          && is_ambient_random txt
        then emit ambient_random loc name
        else if src.Source.zone = Source.Lib && List.mem name getenv_idents
        then emit getenv loc name
        else if
          (src.Source.zone = Source.Lib || src.Source.zone = Source.Bin)
          && src.Source.lib <> Some "telemetry"
          && List.mem name gc_mutation_idents
        then emit gc_mutation loc name
      | _ -> ());
  List.rev !out
