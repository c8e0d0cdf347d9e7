(** Counter-based RNG substreams (SplitMix64-keyed).

    A single sequential [Random.State] stream makes parallel sampling
    schedule-dependent: whichever worker draws first changes every later
    draw.  Keying an independent substream by [(seed, index)] instead
    makes the [index]-th sample a pure function of the seed — the same
    value at 1 worker or 64, in any completion order.  This is the
    determinism contract {!Dacmodel.Montecarlo} relies on
    (docs/PARALLEL.md). *)

(** [state ~seed ~index] is a fresh [Random.State.t] for substream
    [index] of [seed]: [Random.State.make] of the first four words of
    {!draw}[ ~seed ~index], each with its top two bits cleared.
    Distinct [(seed, index)] pairs give statistically independent
    streams; equal pairs give identical ones.  This is the reference
    definition of a substream: {!t} draws the same stream in place. *)
val state : seed:int -> index:int -> Random.State.t

(** [draw ~seed ~index k] is the [k]-th raw 64-bit output of the
    substream — exposed for tests and for hashing-style uses. *)
val draw : seed:int -> index:int -> int -> int64

(** The SplitMix64 finalizer, exposed for tests. *)
val mix : int64 -> int64

(** {2 In-place substreams}

    A hot loop that draws one substream per sample (the Monte-Carlo
    trials) would otherwise build a [Random.State] per sample: a
    Bigarray, a seed array and a closure.  A [t] holds the same
    generator state (the four 64-bit words of OCaml 5's LXM
    [Random.State]) in one 32-byte buffer and is re-seeded in place, so
    a range of samples shares one [t]; each re-seed still allocates the
    two 16-byte MD5 digests [Random.State.make] computes. *)

(** A substream's generator state.  Not shared between domains: each
    task makes its own. *)
type t

(** [substream ~seed ~index] is a fresh [t] in the state of
    {!state}[ ~seed ~index]. *)
val substream : seed:int -> index:int -> t

(** [reseed t ~seed ~index] puts [t] in the state of
    {!state}[ ~seed ~index], in place. *)
val reseed : t -> seed:int -> index:int -> unit

(** [float t] is the next uniform float in (0, 1) of [t]: the value
    [Random.State.float st 1.] draws from a [Random.State] [st] in the
    same state, advancing [t] as it advances [st]. *)
val float : t -> float

(** [floats t u] overwrites [u] with successive {!float}[ t] draws, in
    index order, without allocating. *)
val floats : t -> float array -> unit
