(** The source linter's rule catalogue: every rule a checker (or the
    allowlist and parse machinery) can emit — {!Det_rules},
    {!Domain_rules}, {!Error_rules}, {!Hygiene_rules}, {!Typed_rules},
    {!Allowlist} and {!Source} — sorted by id, and the category each rule
    family reports under: [det] determinism, [domain] domain-safety,
    [err] error-handling, [hyg] hygiene, [int] interprocedural (the typed
    pass's taint and domain-escape findings), [arch] architecture (its
    layering findings) and [meta] (the analyzer's own bookkeeping).
    Raises [Invalid_argument] at module initialisation if two rules share
    an id. *)
val all : Diag.catalogue
