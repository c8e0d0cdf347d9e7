type severity = Error | Warning | Info

type category =
  | Determinism
  | Domain_safety
  | Error_handling
  | Hygiene
  | Interprocedural
  | Architecture
  | Meta

type t = {
  id : string;
  category : category;
  severity : severity;
  doc : string;
}

let make ~id ~category ~severity ~doc = { id; category; severity; doc }

let severity_rank (s : severity) =
  match s with Error -> 0 | Warning -> 1 | Info -> 2

let compare_severity a b = Int.compare (severity_rank a) (severity_rank b)

let severity_name (s : severity) =
  match s with
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let category_name = function
  | Determinism -> "determinism"
  | Domain_safety -> "domain-safety"
  | Error_handling -> "error-handling"
  | Hygiene -> "hygiene"
  | Interprocedural -> "interprocedural"
  | Architecture -> "architecture"
  | Meta -> "meta"

let pp ppf t =
  Format.fprintf ppf "%s[%s] (%s): %s" (severity_name t.severity) t.id
    (category_name t.category) t.doc
