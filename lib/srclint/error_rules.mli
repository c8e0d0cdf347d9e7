(** Error-handling contracts (["err/"] rules): library code must not
    swallow exceptions it did not anticipate (a catch-all handler that
    neither re-raises nor fails turns worker faults into silent wrong
    answers), must prefer typed failures over [assert false] traps, and
    must never [exit] — that is the executable's decision. *)

val rules : Diag.rule list
val check : Source.t -> Diag.t list
