(** The committed suppression file ([.cclint] at the repo root).

    One entry per line:

    {v
    # comment
    <rule-id> <path> : <justification>
    v}

    An entry suppresses every finding of [rule-id] in [path].  The
    justification is mandatory ([meta/missing-justification] otherwise),
    and an entry that suppresses nothing is itself an error
    ([meta/stale-suppression]) so suppressions cannot outlive their cause.
    An entry naming a rule the registry does not know is flagged too
    ([meta/unknown-rule]) — typos must not silently suppress nothing —
    and so is a second entry for the same (rule, path)
    ([meta/duplicate-suppression]): only the first can ever match. *)

type entry = {
  rule_id : string;
  path : string;          (** repo-relative, '/'-separated *)
  justification : string; (** "" when missing *)
  line : int;             (** 1-based line in the allowlist file *)
}

type t = {
  file : string;  (** path of the allowlist file, for meta diagnostics *)
  entries : entry list;
}

val empty : t

(** [parse_string ~file contents] parses allowlist text.  Malformed lines
    (fewer than two tokens before any [:]) are a hard error naming the
    line. *)
val parse_string : file:string -> string -> (t, string) result

(** [load path] reads and parses [path]; a missing file is an empty
    allowlist (nothing suppressed), unreadable or malformed content is an
    error. *)
val load : string -> (t, string) result

val stale_rule : Diag.rule
val missing_justification_rule : Diag.rule
val unknown_rule_rule : Diag.rule
val duplicate_rule : Diag.rule

(** The ["meta/"] rules the allowlist machinery can emit. *)
val rules : Diag.rule list
