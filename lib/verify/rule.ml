type severity =
  | Error
  | Warning
  | Info

type category =
  | Placement
  | Routing
  | Tech
  | Style
  | Lvs

type t = {
  id : string;
  category : category;
  severity : severity;
  doc : string;
}

let make ~id ~category ~severity ~doc = { id; category; severity; doc }

let severity_rank (s : severity) =
  match s with
  | Error -> 0
  | Warning -> 1
  | Info -> 2

let compare_severity a b = Int.compare (severity_rank a) (severity_rank b)

let severity_name (s : severity) =
  match s with
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let category_name = function
  | Placement -> "placement"
  | Routing -> "routing"
  | Tech -> "tech"
  | Style -> "style"
  | Lvs -> "lvs"

let pp ppf t = Format.fprintf ppf "%s[%s]" (severity_name t.severity) t.id
