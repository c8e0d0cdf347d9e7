(* Rule declarations for the typed whole-program pass (Typed).

   Only the identities live here, so the registry stays one static list
   below the analysis modules that emit them (Cmts, Manifest,
   Analysis). *)

let taint_wall_clock =
  Rule.make ~id:"int/taint-wall-clock" ~category:Rule.Interprocedural
    ~severity:Rule.Error
    ~doc:
      "A function in a purity-contracted library transitively reaches a \
       wall-clock read through its call graph; the per-file det/wall-clock \
       rule cannot see the indirection, but the result is just as \
       schedule-dependent.  Thread timestamps in from the caller."

let taint_random =
  Rule.make ~id:"int/taint-random" ~category:Rule.Interprocedural
    ~severity:Rule.Error
    ~doc:
      "A function in a purity-contracted library transitively reaches the \
       ambient Random generator (or self-seeding); every caller inherits \
       the nondeterminism.  Derive Random.State values from Par.Rng \
       substreams and pass them down the chain."

let taint_getenv =
  Rule.make ~id:"int/taint-getenv" ~category:Rule.Interprocedural
    ~severity:Rule.Warning
    ~doc:
      "A function in a purity-contracted library transitively reads the \
       process environment; behaviour becomes ambient for every caller.  \
       Resolve configuration at the CLI boundary and pass it down."

let taint_gc =
  Rule.make ~id:"int/taint-gc" ~category:Rule.Interprocedural
    ~severity:Rule.Error
    ~doc:
      "A function in a purity-contracted library transitively mutates the \
       GC, changing process-wide collection scheduling and skewing \
       Telemetry.Memory accounting for every concurrent caller."

let taint_print =
  Rule.make ~id:"int/taint-print" ~category:Rule.Interprocedural
    ~severity:Rule.Error
    ~doc:
      "A function in a purity-contracted library transitively writes to \
       stdout/stderr; output interleaves nondeterministically under \
       Par.Pool.  Return strings or take a Format.formatter."

let domain_escape =
  Rule.make ~id:"int/domain-escape" ~category:Rule.Interprocedural
    ~severity:Rule.Error
    ~doc:
      "Mutable state created outside a closure submitted to Par.Pool is \
       written inside it (directly or via a callee), so worker domains \
       race on it.  Return per-task results and fold them in the \
       submitter, or use the sanctioned telemetry/par mutex+DLS idioms."

let layer_violation =
  Rule.make ~id:"arch/layer-violation" ~category:Rule.Architecture
    ~severity:Rule.Error
    ~doc:
      "A library depends on one at the same or a higher layer of the \
       declared .ccdeps DAG; dependencies must point strictly downward \
       or the layering is fiction."

let forbidden_dep =
  Rule.make ~id:"arch/forbidden-dep" ~category:Rule.Architecture
    ~severity:Rule.Error
    ~doc:
      "The dependency edge is explicitly forbidden by the .ccdeps \
       manifest (kernels must not reach QoR sinks, verify must not reach \
       lvs internals); the manifest entry names the reason."

let layer_cycle =
  Rule.make ~id:"arch/layer-cycle" ~category:Rule.Architecture
    ~severity:Rule.Error
    ~doc:
      "The library dependency graph contains a cycle, so no layering \
       assignment can be valid and incremental rebuilds are unsound."

let undeclared_lib =
  Rule.make ~id:"arch/undeclared-lib" ~category:Rule.Architecture
    ~severity:Rule.Error
    ~doc:
      "A lib/ sublibrary has no layer declaration in the .ccdeps \
       manifest, so the layering contract cannot vouch for its edges; \
       every sublibrary must be placed in the DAG."

let cmt_error =
  Rule.make ~id:"meta/cmt-error" ~category:Rule.Meta ~severity:Rule.Error
    ~doc:
      "A .cmt file under _build is missing, stale or unreadable, so the \
       typed pass cannot vouch for that part of the tree: a lib/ \
       sublibrary with no .cmt, a module whose implementation .cmt is \
       absent, unloadable or records another source digest than the file \
       on disk, or a .cmt whose source is gone.  Run dune build, or \
       investigate the toolchain skew."

let manifest_error =
  Rule.make ~id:"meta/ccdeps-manifest" ~category:Rule.Meta
    ~severity:Rule.Error
    ~doc:
      "The .ccdeps manifest names a library that does not exist under \
       lib/, or declares the same library twice; a misspelt contract \
       silently contracts nothing."

let rules =
  [ taint_wall_clock; taint_random; taint_getenv; taint_gc; taint_print;
    domain_escape; layer_violation; forbidden_dep; layer_cycle;
    undeclared_lib; cmt_error; manifest_error ]
