(** Where a QoR record came from: enough context to interpret a ledger
    entry months later, cheap enough to capture on every run.

    The git commit is read straight from [.git/HEAD] (following one level
    of [ref:] indirection through loose refs and [packed-refs]) — no
    subprocess, and absence is not an error: records written outside a
    checkout simply carry no commit. *)

type t = {
  timestamp_s : float;        (** Unix time the record was captured *)
  host : string;
  cores : int;                (** [Domain.recommended_domain_count ()]
                                  on the capturing machine; [0] when
                                  unknown *)
  git_commit : string option; (** full hex sha, when inside a checkout *)
}

(** [capture ()] stamps the current time, hostname, core count and
    (best-effort) the git commit of the working directory or any of its
    ancestors. *)
val capture : unit -> t

val to_json : t -> Telemetry.Json.t

(** Total: missing fields decay to [0.] / [""] / [0] / [None], never an
    error — provenance must not make an old ledger unreadable. *)
val of_json : Telemetry.Json.t -> t

(** The release this tree is: the newest [## x.y.z] heading of
    CHANGELOG.md, e.g. ["1.15.0"].  Bumped by hand with each CHANGELOG
    entry; a test checks the two agree. *)
val changelog : string

(** [server ()] is ["ccdac/<version> host=<host> commit=<sha8>"] (commit
    omitted outside a git checkout), built from {!capture} — cheap, no
    subprocess.  It is what [ccgen version] prints. *)
val server : unit -> string
