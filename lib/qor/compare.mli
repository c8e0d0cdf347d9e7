(** The regression sentinel: diff current QoR records against a
    baseline under the {!Policy} catalogue and report verdicts in the
    [Verify.Report] text/JSON conventions.

    Records pair up by [label] ([style b<bits>]).  A baseline label with
    no current record is a {e coverage} failure ([qor/coverage], Error):
    silently dropping a configuration must not read as "no regression".
    Current labels absent from the baseline are reported as warnings but
    never gate — new configurations are not regressions.  Schema-version
    skew and tech-hash drift are surfaced (the latter through the
    [qor/tech_hash] policy) so cross-technology diffs read as advisory,
    not as electrical regressions. *)

type finding = {
  policy : Policy.t;
  label : string;            (** which configuration, e.g. ["spiral b8"] *)
  verdict : Policy.verdict;
  detail : string;
}

type t = {
  findings : finding list;   (** sorted: failing first, then severity, id,
                                 label — deterministic like Verify.Report *)
  warnings : string list;    (** non-gating notes: new labels, schema skew *)
}

(** The pseudo-policy behind coverage failures. *)
val coverage_policy : Policy.t

(** [compare_records ~baseline ~current] is one pair's findings — one
    per catalogue policy. *)
val compare_records : baseline:Record.t -> current:Record.t -> finding list

(** [diff ~baseline ~current] pairs up by label and compares. *)
val diff : baseline:Record.t list -> current:Record.t list -> t

(** [failing ?werror t] is the findings that disqualify: verdict
    [Regressed] or [Incomparable], of a severity {!Diag.disqualifies}
    ([Error], or [Warning] under [werror]).  Empty means the gate
    passes. *)
val failing : ?werror:bool -> t -> finding list

(** [gate ?werror t] is [Error (failing t)] when disqualifying findings
    exist. *)
val gate : ?werror:bool -> t -> (unit, finding list) result

(** ["clean"] or e.g. ["2 regressed, 1 incomparable, 3 improved"]. *)
val summary_line : t -> string

(** One line per finding plus the summary line (and warnings, when
    any) — the terminal form. *)
val text : t -> string

(** [{"version": 1, "summary": {...}, "findings": [...],
    "warnings": [...]}] — the machine form. *)
val to_json : t -> Telemetry.Json.t
