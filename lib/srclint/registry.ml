let all =
  Diag.catalogue
    ~categories:
      [ ("det", "determinism"); ("domain", "domain-safety");
        ("err", "error-handling"); ("hyg", "hygiene");
        ("int", "interprocedural"); ("arch", "architecture");
        ("meta", "meta") ]
    (Det_rules.rules @ Domain_rules.rules @ Error_rules.rules
     @ Hygiene_rules.rules @ Typed_rules.rules @ Allowlist.rules
     @ [ Source.parse_error_rule ])
