(** The diagnostics framework shared by the layout checker ({!Verify}) and
    the source linter ({!Srclint}): severities, rules, findings, the rule
    catalogue and the one pass/fail gate.

    Rules are data, not code: each checker module declares the rules it
    owns, a tool gathers them into its {!catalogue}, and what varies at
    runtime is the set of findings ({!t}) the checkers emit against them.
    Each tool keeps only its own rule list and report document. *)

type severity =
  | Error    (** the artifact or contract is broken *)
  | Warning  (** suspicious but not disqualifying; promoted by [--werror] *)
  | Info     (** advisory only *)

(** [severity_name s] is ["error"], ["warning"] or ["info"]. *)
val severity_name : severity -> string

(** [compare_severity a b] orders [Error < Warning < Info] (most severe
    first), so sorting findings by severity surfaces errors. *)
val compare_severity : severity -> severity -> int

(** [disqualifies ?werror s] is the one gate every tool decides through:
    [Error] always disqualifies, [Warning] only under [~werror:true]
    (default [false]), [Info] never. *)
val disqualifies : ?werror:bool -> severity -> bool

type rule = {
  id : string;  (** ["<family>/<name>"], e.g. ["place/centroid"] *)
  severity : severity;
  doc : string;  (** one-sentence contract, used by docs and reports *)
}

val rule : id:string -> severity:severity -> doc:string -> rule

(** [family id] is the part of a rule id before its first ['/'] (the whole
    id when it has none): ["place/centroid"] is in family ["place"]. *)
val family : string -> string

(** One concrete finding: a rule violated at one place. *)
type t = {
  rule : rule;
  loc : string;
    (** what the finding is anchored to — a layout element (["C_3"],
        ["channel 4"]) or a repo-relative source path; [""] for none *)
  line : int;  (** 1-based source line; [0] when not a source position *)
  col : int;  (** 0-based column of the offending token *)
  detail : string;  (** human-readable description with measured values *)
}

(** [make ?loc ?line ?col rule detail]; [loc] defaults to [""], [line] and
    [col] to [0]. *)
val make : ?loc:string -> ?line:int -> ?col:int -> rule -> string -> t

(** [makef ?loc ?line ?col rule fmt ...] formats the detail in place. *)
val makef :
  ?loc:string -> ?line:int -> ?col:int -> rule ->
  ('a, unit, string, t) format4 -> 'a

val severity : t -> severity

(** Severity first (errors up), then rule id, location, line, column and
    detail — a deterministic total order for reporting.  An unanchored
    finding sorts before the anchored ones of its rule. *)
val compare : t -> t -> int

(** [sort diags] is [diags] in {!compare} order. *)
val sort : t list -> t list

(** [errors diags] keeps only [Error]-severity findings. *)
val errors : t list -> t list

(** [rule_ids diags] is the sorted de-duplicated list of violated rule
    ids. *)
val rule_ids : t list -> string list

(** [fails ?werror diags]: does any finding {!disqualifies}? *)
val fails : ?werror:bool -> t list -> bool

(** Renders as ["error[place/centroid] C_3: centroid off by ..."], a
    source position as ["error[det/wall-clock] lib/x.ml:72:18: ..."] and
    an unanchored finding as ["error[route/extent] width 0 ..."]. *)
val pp : Format.formatter -> t -> unit

(** [summary ~clean diags] is [clean] when [diags] is empty, otherwise
    the counts, e.g. ["2 errors, 1 warning"]. *)
val summary : clean:string -> t list -> string

(** [json_counts diags] is the body of a JSON summary object:
    ["\"errors\": 1, \"warnings\": 0, \"infos\": 0, \"total\": 1"]. *)
val json_counts : t list -> string

(** [json_escape s] escapes [s] for embedding in a JSON string literal. *)
val json_escape : string -> string

(** A tool's rule catalogue. *)
type catalogue = {
  rules : rule list;  (** sorted by id; ids unique *)
  categories : (string * string) list;
    (** family to category name, e.g. [("place", "placement")] *)
}

(** [catalogue ~categories rules] sorts [rules] by id.  Raises
    [Invalid_argument] when two rules share an id or a rule's family has
    no category. *)
val catalogue : categories:(string * string) list -> rule list -> catalogue

(** [find c id]. *)
val find : catalogue -> string -> rule option

(** [ids c] is the sorted list of every rule id. *)
val ids : catalogue -> string list

(** [category c rule] is the category name of [rule]'s family. *)
val category : catalogue -> rule -> string

(** [rule_json c rule] is [rule]'s catalogue entry as a JSON object:
    [{"id": ..., "category": ..., "severity": ..., "doc": ...}]. *)
val rule_json : catalogue -> rule -> string

(** [matches ~patterns id]: does [id] satisfy a rule filter?  A pattern
    selects its exact id, or a whole family — ["det"], ["det/"] and
    ["det/*"] all select every ["det/"] rule. *)
val matches : patterns:string list -> string -> bool

(** [selects_nothing c patterns] is the sublist of [patterns] that select
    no rule of [c] — typos to report. *)
val selects_nothing : catalogue -> string list -> string list
