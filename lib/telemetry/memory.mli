(** Memory/GC observability: live allocation counters and
    [Gc.quick_stat] deltas around spans.

    Sampling is off by default and costs one [Atomic.get] per span when
    off — the same pay-nothing-when-inactive discipline as
    {!Span.with_}.  When {!with_enabled} turns it on, every completed
    span carries a {!delta}: words allocated while the span ran
    (minor + major − promoted, so promotions count once), collection
    counts, and major-heap sizes before/after/at-peak.  Allocated and
    promoted words are read live for the calling domain ([Gc.counters]
    for major and promoted words, [Gc.minor_words] for minor ones), so a
    direct major allocation (an array of more than 256 words) is charged
    to the span that made it, not to the span that sees the next
    collection.

    {b Domains.}  OCaml 5 allocation counters are per-domain, so each
    domain owns a mutex-guarded {e foreign ledger}.  {!Context} captures
    the submitting domain's ledger into {!Par.Pool} workers via
    {!capture_ctx}/{!with_ctx}; a task executed on a domain that is not
    already feeding the ledger adds its own delta on completion, and a
    span reads the ledger growth back {e only} when it runs in the owner
    domain.  The result: a stage span that fans out through the pool at
    any [--jobs] value reports the allocation of every worker, exactly
    once.  (With nested pools, sub-worker deltas credit the outermost
    owner — totals stay exact; intermediate nested spans see only their
    own domain's share.)

    {b Heap sizes are process-wide.}  [heap_words]/[top_heap_words]
    describe the major heap, which OCaml 5 shares across domains, so
    concurrent spans legitimately report overlapping heap numbers —
    treat [peak_heap_mb] as "peak of the process while this span ran". *)

(** What one span observed.  Word counts are in words ([float], because
    [Gc.stat] counters are); convert with {!words_to_mb}. *)
type delta = {
  allocated_words : float;   (** minor + major − promoted *)
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words_before : int;   (** major heap (process-wide) at span entry *)
  heap_words_after : int;
  top_heap_words : int;      (** process peak observed by span exit *)
}

(** [enabled ()] — is sampling on?  One atomic read. *)
val enabled : unit -> bool

(** [with_enabled b f] runs [f] with sampling set to [b] for every
    domain, restoring the previous state afterwards (also on
    exceptions). *)
val with_enabled : bool -> (unit -> 'a) -> 'a

(** {2 Sampling protocol} — what {!Span.with_} calls. *)

type sample

(** [start ()] is [None] when sampling is off (the only cost paid);
    otherwise a snapshot of this domain's counters and, in the ledger
    owner's domain, of the ledger. *)
val start : unit -> sample option

(** [finish s] closes the snapshot into a {!delta}, folding in foreign
    ledger growth when called in the owner domain. *)
val finish : sample -> delta

(** {2 Cross-domain propagation} — used by {!Context}; prefer that. *)

(** The calling domain's foreign ledger, as an opaque capture. *)
type ctx

val capture_ctx : unit -> ctx

(** [with_ctx c f] runs [f] and, when sampling is on and the calling
    domain is not already contributing to [c] (it is a pool worker, not
    the submitter draining its own queue), credits [f]'s quick_stat
    delta to the captured ledger.  Also installs [c] as the domain's
    current ledger for the duration, so nested pool fan-out keeps
    crediting the same owner. *)
val with_ctx : ctx -> (unit -> 'a) -> 'a

(** {2 Unit conversions and rendering} *)

(** [words_to_mb w] converts GC words to mebibytes using the host word
    size. *)
val words_to_mb : float -> float

(** [allocated_mb d] — {!delta.allocated_words} in MB. *)
val allocated_mb : delta -> float

(** [peak_heap_mb d] — {!delta.top_heap_words} in MB. *)
val peak_heap_mb : delta -> float

(** [heap_after_mb d] — {!delta.heap_words_after} in MB. *)
val heap_after_mb : delta -> float

val to_json : delta -> Json.t
