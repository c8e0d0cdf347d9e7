(** One concrete finding: a {!Rule.t} violated at a particular source
    location.  The shape mirrors {!Verify.Diagnostic}, with the [loc]
    anchored to a file:line:col instead of a layout element. *)

type t = {
  rule : Rule.t;
  file : string;  (** repo-relative path, '/'-separated *)
  line : int;     (** 1-based; 0 when the finding is file-scoped *)
  col : int;      (** 0-based column of the offending token *)
  detail : string;
}

val make : rule:Rule.t -> file:string -> ?line:int -> ?col:int -> string -> t

(** [makef ~rule ~file ?line ?col fmt ...] formats the detail in place. *)
val makef :
  rule:Rule.t ->
  file:string ->
  ?line:int ->
  ?col:int ->
  ('a, unit, string, t) format4 ->
  'a

val severity : t -> Rule.severity

(** Severity first (errors up), then rule id, then file, line, column and
    detail — a deterministic total order for reporting. *)
val compare : t -> t -> int

(** [sort diags] is [diags] in {!compare} order. *)
val sort : t list -> t list

(** [count sev diags]. *)
val count : Rule.severity -> t list -> int

(** [errors diags] keeps only [Error]-severity findings. *)
val errors : t list -> t list

(** [rule_ids diags] is the sorted de-duplicated list of violated rule
    ids. *)
val rule_ids : t list -> string list

(** Renders as ["error[det/wall-clock] lib/x.ml:72:18: ..."], and a
    file-scoped finding (line 0) as
    ["error[meta/cmt-error] lib/capmodel: ..."]. *)
val pp : Format.formatter -> t -> unit
