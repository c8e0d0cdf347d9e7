(** Discovery and loading of the [.cmt] Typedtrees dune leaves under
    [_build/default/lib/], summarized into the whole-program universe
    the typed analyses consume and checked against the sources on
    disk. *)

type universe = {
  libs : string list;  (** [lib/] dir names with a dune file, sorted *)
  mods : Summary.moddef list;
  lib_of_module : string -> string option;
      (** canonical head module (["Ccplace"]) to lib dir (["ccplace"]) *)
  errors : Diagnostic.t list;
      (** [meta/cmt-error] findings: one per library with no [.cmt], one
          per unreadable [.cmt], one per [.ml] whose implementation
          [.cmt] is missing or records another source digest, and one
          per [.cmt] whose source is gone *)
}

(** [load ~root] reads every [.cmt] under [root/_build/default/lib] for
    the sublibraries of [root/lib]. *)
val load : root:string -> universe
