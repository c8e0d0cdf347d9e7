(** A verification rule: the static identity of one invariant the layout
    pipeline promises to uphold.

    Rules are data, not code: each checker module declares the rules it
    owns and {!Registry} aggregates them into the catalogue that backs
    reporting, documentation and the [ccgen lint] CLI.  A rule never
    changes at runtime — what varies is the set of {!Diagnostic.t}
    instances the checkers emit against it. *)

type severity =
  | Error    (** the artifact is unusable; metrics computed from it lie *)
  | Warning  (** suspicious but not disqualifying; promoted by [--werror] *)
  | Info     (** advisory only *)

type category =
  | Placement  (** grid/assignment invariants (weights, centroid, symmetry) *)
  | Routing    (** routed-layout invariants (outline, tracks, nets) *)
  | Tech       (** process/technology description sanity *)
  | Style      (** placement-style configuration validity *)
  | Lvs        (** layout-vs-schematic: extracted connectivity vs intent *)

type t = {
  id : string;        (** stable machine id, e.g. ["place/centroid"] *)
  category : category;
  severity : severity;
  doc : string;       (** one-sentence contract, used by docs and reports *)
}

val make :
  id:string -> category:category -> severity:severity -> doc:string -> t

(** [compare_severity a b] orders [Error < Warning < Info] (most severe
    first), so sorting diagnostics by severity surfaces errors. *)
val compare_severity : severity -> severity -> int

(** [severity_name s] is ["error"], ["warning"] or ["info"]. *)
val severity_name : severity -> string

(** [category_name c] is ["placement"], ["routing"], ["tech"], ["style"]
    or ["lvs"]. *)
val category_name : category -> string

val pp : Format.formatter -> t -> unit
