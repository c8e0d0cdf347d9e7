(** The three typed whole-program analyses: effect/determinism taint,
    domain-escape race detection and architecture layering.  Each takes
    summarized modules plus the committed manifest and yields ordinary
    {!Diagnostic.t}s. *)

(** [taint ~manifest graph mods]: for every def in a [pure]-contracted
    library that transitively reaches an ambient-effect source, an
    ["int/taint-*"] diagnostic naming the concrete call chain. *)
val taint :
  manifest:Manifest.t -> Callgraph.t -> Summary.moddef list ->
  Diagnostic.t list

(** [escape ~manifest graph mods]: ["int/domain-escape"] diagnostics for
    mutable state written from within [Par.Pool] task closures without
    being bound inside them — directly, at module level, or through a
    callee chain. *)
val escape :
  manifest:Manifest.t -> Callgraph.t -> Summary.moddef list ->
  Diagnostic.t list

(** One cross-library dependency edge, anchored to its first use site. *)
type edge = {
  e_src : string;
  e_dst : string;
  e_file : string;
  e_line : int;
}

(** [edges ~lib_of_module mods]: the deduplicated cross-library edges in
    the summaries.  [lib_of_module] maps a head module name
    (["Ccplace"]) to its [lib/] dir, when analyzed. *)
val edges :
  lib_of_module:(string -> string option) -> Summary.moddef list ->
  edge list

(** [layering ~manifest ~libs edges]: ["arch/*"] diagnostics — layers
    missing from the manifest, upward or forbidden edges, and dependency
    cycles.  Callable on synthetic edges (tests exercise cycles this
    way, since dune already rejects real ones). *)
val layering :
  manifest:Manifest.t -> libs:string list -> edge list ->
  Diagnostic.t list

(** [run ~manifest ~libs ~lib_of_module mods]: manifest validation plus
    all three analyses, concatenated. *)
val run :
  manifest:Manifest.t -> libs:string list ->
  lib_of_module:(string -> string option) -> Summary.moddef list ->
  Diagnostic.t list
