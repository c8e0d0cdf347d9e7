(** The typed whole-program pass: [.ccdeps] manifest + every [.cmt]
    under [_build/default/lib] in, {!Diagnostic.t}s out. *)

(** [run ~root] is the full diagnostic list: manifest problems, missing,
    stale or unreadable cmts, and the taint / domain-escape / layering
    findings. *)
val run : root:string -> Diagnostic.t list
