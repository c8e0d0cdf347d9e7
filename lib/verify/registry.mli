(** The layout checker's rule catalogue: every rule {!Place_rules},
    {!Route_rules}, {!Tech_rules}, {!Style_rules} and {!Lvs_rules}
    declare, sorted by id, and the category each rule family reports
    under ([place] is ["placement"], [route] is ["routing"]; [tech],
    [style] and [lvs] are their own).  Raises [Invalid_argument] at
    module initialisation if two rules share an id. *)
val all : Diag.catalogue
