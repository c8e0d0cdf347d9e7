(** The committed [.ccdeps] manifest: per-library purity contracts, the
    layer DAG over [lib/] sublibraries, explicitly forbidden edges, and
    the trusted module prefixes where interprocedural traversal stops.

    {v
    layer <lib> <rank>            # place in the DAG (deps need lower rank)
    forbid <from> <to> : <why>    # edge banned even if ranks allow it
    pure <lib> : <note>           # library under the purity contract
    trust <Module.Prefix> : <why> # traversal boundary (audited elsewhere)
    v} *)

type decl_loc = { dline : int }

type t = {
  file : string;
  layers : (string * int * decl_loc) list;
  forbids : (string * string * string * decl_loc) list;
  pures : (string * decl_loc) list;
  trusted : (string * decl_loc) list;
}

(** [".ccdeps"]: where the manifest sits under the repository root, and
    the file its diagnostics name. *)
val path : string

val empty : t

(** [rank t lib] is the declared layer rank, if any. *)
val rank : t -> string -> int option

(** [forbidden t ~src ~dst] is the reason when the edge is explicitly
    banned. *)
val forbidden : t -> src:string -> dst:string -> string option

val is_pure : t -> string -> bool

(** [is_trusted t name]: the normalized global [name] falls under a
    trusted prefix, so analyses treat the call as an effect-free
    boundary. *)
val is_trusted : t -> string -> bool

(** [parse_string ~file contents] parses manifest text; malformed or
    unknown directives are a hard error naming the line. *)
val parse_string : file:string -> string -> (t, string) result

(** [load ~root] reads the manifest at {!path} under [root]: a missing
    file is an empty manifest; unreadable or malformed content is an
    error. *)
val load : root:string -> (t, string) result

(** [validate t ~libs] emits [meta/ccdeps-manifest] diagnostics for
    directives naming no known sublibrary and duplicate layer
    declarations. *)
val validate : t -> libs:string list -> Diag.t list
