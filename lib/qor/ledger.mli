(** The append-only run ledger: one JSON object per line (JSONL), one
    line per recorded flow run.

    Appending never rewrites history — the file is opened in append mode
    and each append holds an advisory whole-file lock ([lockf]) for the
    duration of its single-line write, so concurrent recorders — a
    parallel [make bench], several processes sharing one ledger —
    interleave whole lines, never fragments.  Loading is
    tolerant: lines that fail to parse are skipped and reported, not
    fatal, because a ledger is a log and a log survives partial
    corruption. *)

(** [append ~path record] appends one line, creating the file (0644) if
    needed, serialised against concurrent appenders by an advisory file
    lock.  Raises [Sys_error] when the path cannot be written. *)
val append : path:string -> Record.t -> unit

(** [load ~path] is [(records, complaints)]: every line that parsed, in
    file order, plus one human-readable complaint per skipped line.
    Raises [Sys_error] when the file cannot be read. *)
val load : path:string -> Record.t list * string list

(** [latest_by_label records] keeps the last record of each label, in
    first-seen label order — "the current state of the ledger". *)
val latest_by_label : Record.t list -> Record.t list
