(** Hygiene contracts (["hyg/"] rules): no polymorphic structural compare
    where a typed comparator exists (on floats it is NaN-hostile and on
    records it is field-order-fragile), no [=] against float literals, no
    printing from library code, no [Obj] tricks anywhere.

    Polymorphic-compare detection is syntactic: [Stdlib.compare] is always
    flagged in [lib/]; a bare [compare] is flagged unless the file binds
    its own [compare] (a module defining [M.compare] is the typed
    comparator, not a use of the polymorphic one). *)

val rules : Diag.rule list
val check : Source.t -> Diag.t list
