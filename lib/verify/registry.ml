let all =
  Diag.catalogue
    ~categories:
      [ ("place", "placement"); ("route", "routing"); ("tech", "tech");
        ("style", "style"); ("lvs", "lvs") ]
    (Place_rules.rules @ Route_rules.rules @ Tech_rules.rules
     @ Style_rules.rules @ Lvs_rules.rules)
