(** Canonical naming for Typedtree paths, and the ambient-effect,
    mutator and [Par.Pool] entry tables the typed analyses key on. *)

(** A resolved identifier occurrence. *)
type name =
  | Local of string
      (** a bare [Pident]: bound in the def, or a module-level sibling *)
  | Global of string  (** dotted, {!normalize}d *)

(** [normalize s] rewrites dune's ["Lib__Module"] mangling to
    ["Lib.Module"] and drops a leading ["Stdlib."] when something
    follows it: ["Stdlib.Random.int"] and ["Stdlib__Random.int"] both
    become ["Random.int"]. *)
val normalize : string -> string

(** [of_path p] classifies and normalizes a compiler [Path.t]. *)
val of_path : Path.t -> name

(** [head "A.B.c"] is ["A"]. *)
val head : string -> string

(** [has_prefix ~prefix s]: [s] equals [prefix] or starts with
    [prefix ^ "."] — component-wise, so ["Par"] covers ["Par.Rng.state"]
    but not ["Parasitic.x"]. *)
val has_prefix : prefix:string -> string -> bool

(** The taint kinds the effect analysis tracks. *)
type kind = Wall_clock | Random | Getenv | Gc | Print

val kind_name : kind -> string
val all_kinds : kind list

(** [source_kind name] is the ambient-effect kind of a normalized global
    identifier, if it is a taint source ([Unix.gettimeofday], ambient
    [Random.*], [Sys.getenv], GC mutators, stdout/stderr printers). *)
val source_kind : string -> kind option

(** [mutator_target_index name] is [Some i] when the operation writes
    its [i]-th positional argument in place — 0 for most ([:=],
    [Hashtbl.replace], [Array.set], ...), 1 for the sorts, whose first
    argument is the comparator ([Array.sort cmp a] mutates [a]).
    [Atomic.*] is deliberately not listed. *)
val mutator_target_index : string -> int option

(** [pool_fn_index name] is [Some i] when [name] is a [Par.Pool] entry
    point whose task function is positional argument [i]. *)
val pool_fn_index : string -> int option
