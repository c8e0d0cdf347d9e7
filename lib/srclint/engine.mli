(** The analysis driver: discover sources, parse, run every registered
    checker and the typed whole-program pass, apply the [--rules] filter
    and the [.cclint] allowlist, and return one deterministic result. *)

(** One allowlist entry's outcome: how many findings it suppressed.
    [matched = 0] means the entry is stale. *)
type suppression = {
  entry : Allowlist.entry;
  matched : int;
}

type result = {
  files_scanned : int;
  diagnostics : Diag.t list;
    (** post-filter, post-suppression, {!Diag.compare}-sorted;
        includes the ["meta/"] findings about the allowlist itself *)
  suppressions : suppression list;  (** in allowlist order *)
}

(** The trees scanned by default, relative to the root:
    [lib bin bench test]. *)
val default_roots : string list

(** [ml_files ~root] walks {!default_roots} under [root] and returns every
    [.ml] path (repo-relative, '/'-separated, sorted).  [_build] and
    dot-directories are skipped. *)
val ml_files : root:string -> string list

(** [check_source src] runs every checker on one parsed source. *)
val check_source : Source.t -> Diag.t list

(** [check_string ~path contents] parses and checks one in-memory source;
    unparseable input yields the single [meta/parse-error] finding.  This
    is the fixture-test entry point. *)
val check_string : path:string -> string -> Diag.t list

(** [check_file ~root path] reads and checks [root/path]; unreadable files
    surface as a [meta/parse-error] finding. *)
val check_file : root:string -> string -> Diag.t list

(** [apply_allowlist allowlist diags] splits [diags] into kept findings
    and per-entry suppression counts, and appends the ["meta/"] findings
    (stale entry, missing justification, unknown rule, duplicate
    entry). *)
val apply_allowlist :
  Allowlist.t -> Diag.t list -> Diag.t list * suppression list

(** [run ?rules ?allowlist ~root ()] is the whole analysis: every
    checker over {!ml_files}, then the typed whole-program pass
    ({!Typed.run}) over the [.cmt] files under [root/_build/default/lib],
    which must match the sources on disk ([meta/cmt-error] otherwise).
    [rules] filters findings (and allowlist entries) to the selected ids
    — see {!Diag.matches}; default everything.  [allowlist] defaults
    to {!Allowlist.empty}. *)
val run :
  ?rules:string list -> ?allowlist:Allowlist.t -> root:string -> unit ->
  result
