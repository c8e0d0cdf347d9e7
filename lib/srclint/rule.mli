(** A source-lint rule: the static identity of one contract the codebase
    promises to uphold at the source level — no ambient clocks or RNG in
    library code, no unguarded global mutable state reachable from
    [Par.Pool] workers, no polymorphic compare on floats in kernels.

    This deliberately mirrors {!Verify.Rule}: rules are data, not code.
    Each checker module declares the rules it owns, {!Registry} aggregates
    them, and what varies at runtime is the set of {!Diagnostic.t}
    instances emitted against them. *)

type severity =
  | Error    (** the contract is broken; determinism or safety is at risk *)
  | Warning  (** suspicious but arguable; promoted by [--werror] *)
  | Info     (** advisory only *)

type category =
  | Determinism     (** wall clocks, ambient RNG, environment reads *)
  | Domain_safety   (** global mutable state, domain-local storage *)
  | Error_handling  (** swallowed exceptions, traps, exits *)
  | Hygiene         (** polymorphic compare, stray printing, [Obj] *)
  | Interprocedural
      (** whole-program effect taint and domain-escape findings from the
          typed ([.cmt]) pass — {!Typed} *)
  | Architecture
      (** layering-contract findings over the [lib/] sublibrary DAG,
          also from the typed pass *)
  | Meta            (** the analyzer's own bookkeeping (allowlist, parse) *)

type t = {
  id : string;        (** stable machine id, e.g. ["det/wall-clock"] *)
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

(** [category_name c] is ["determinism"], ["domain-safety"],
    ["error-handling"], ["hygiene"], ["interprocedural"],
    ["architecture"] or ["meta"]. *)
val category_name : category -> string

val pp : Format.formatter -> t -> unit
