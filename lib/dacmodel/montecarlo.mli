(** Monte-Carlo mismatch analysis — the numerical-yield alternative to the
    analytical 3-sigma model (the paper models "random mismatch using a
    3-sigma model, as opposed to numerical yield integrals [7]"; this
    module implements the latter so both can be compared and used for
    yield-driven sizing).

    Each trial draws one jointly-Gaussian realisation of the capacitor
    shifts from the exact Eq. 6 covariance (plus the deterministic
    systematic shifts) and records the worst |INL| and |DNL| over all
    codes.  Those follow in closed form from the N per-bit INL
    contributions ({!evaluate}), so no trial walks the 2^N codes. *)

type t = {
  trials : int;
  mean_inl : float;            (** mean over trials of max |INL|, LSB *)
  mean_dnl : float;
  p95_inl : float;             (** 95th percentile of max |INL|, LSB *)
  p95_dnl : float;
  max_inl : float;             (** worst trial *)
  max_dnl : float;
  yield : float;               (** fraction of trials with both max |INL|
                                   and max |DNL| within the bound *)
}

(** [run tech ?seed ?theta ?cov ?top_parasitic ?bound ?jobs ~trials placement].
    [bound] is the pass/fail linearity limit in LSB (default 0.5).
    [cov] is {!Nonlinearity.covariance}[ tech placement] (a flow's
    [Ccdac.Flow.result] carries it), built here when absent.
    [jobs] (default {!Par.Jobs.default}) parallelises the trials over a
    domain pool once there are at least {!min_parallel_trials} of them,
    as ranges of {!range_trials}; fewer run serially at any [jobs].
    Trial [i] draws from the substream keyed by [(seed, i)]
    ({!Par.Rng}), so the statistics are {e bitwise identical} at every
    [jobs] value (docs/PARALLEL.md).
    Cost: one covariance build unless [cov] is given
    ({!Capmodel.Covariance.build}; its lattice kernel derives the
    largest capacitor, sums the small ones directly and transforms the
    rest), one Cholesky factorisation, and per trial two MD5 digests
    (the substream's seed), [O(N^2)] flops (the correlated draw;
    {!evaluate} is [O(N)]) and no other allocation; then an expected
    [O(trials)] selection for each 95th percentile ({!percentile}).
    Raises [Invalid_argument] when [trials < 1], and when a draw makes
    the total capacitance non-positive (wrapped in
    [Par.Pool.Task_failed] when the trials ran in the pool). *)
val run :
  Tech.Process.t -> ?seed:int -> ?theta:float -> ?cov:Capmodel.Covariance.t ->
  ?top_parasitic:float -> ?bound:float -> ?jobs:int -> trials:int ->
  Ccgrid.Placement.t -> t

(** [trial_curves tech ?seed ?theta ?cov ?top_parasitic ?jobs ~trials
    placement] is the per-trial max |INL| and max |DNL|, one array each,
    in trial order, for callers that want the raw distribution.  Same
    determinism contract and exceptions as {!run}. *)
val trial_curves :
  Tech.Process.t -> ?seed:int -> ?theta:float -> ?cov:Capmodel.Covariance.t ->
  ?top_parasitic:float -> ?jobs:int -> trials:int -> Ccgrid.Placement.t ->
  float array * float array

(** Trial count from which {!trial_curves} and {!run} use the domain
    pool.  Below it the pool costs about what it saves (docs/PARALLEL.md
    has the measurement). *)
val min_parallel_trials : int

(** Trials per pool task: the pool maps consecutive ranges of this many
    trials (the last one shorter) and concatenates them in range
    order. *)
val range_trials : int

(** [standard_normals rng ~u z] overwrites [z] with independent N(0,1)
    variates by Box–Muller: it draws [Array.length u] uniforms into
    [u] ({!Par.Rng.floats}), and [z.(k)] is
    [sqrt (-2 ln u1) cos (2 pi u2)] with [u1 = 1 - u.(2k)] and
    [u2 = u.(2k+1)].  Allocation-free.  Raises [Invalid_argument]
    unless [u] has twice [z]'s length.  Exposed for tests. *)
val standard_normals : Par.Rng.t -> u:float array -> float array -> unit

(** [evaluate ~bits ~c_t ~top_parasitic ~sys shifts] is one trial's
    (max |INL|, max |DNL|) in LSB, for random shifts [shifts] and
    systematic shifts [sys] (fF, indexed by capacitor [0..N]) of an
    array with nominal total capacitance [c_t] (fF).  With
    [d_k = shifts.(k) +. sys.(k)] and [dT = sum d + top_parasitic],
    bit [k] adds [e_k = (2^N d_k - 2^(k-1) dT) / (c_t + dT)] LSB to the
    INL of every code that sets it; max |INL| is the larger magnitude of
    the positive and the negative [e_k] sums, and max |DNL| is the
    largest [|e_(t+1) - sum_(k<=t) e_k|].  [O(N)].  Raises
    [Invalid_argument] when [c_t + dT <= 0].  Exposed for tests. *)
val evaluate :
  bits:int -> c_t:float -> top_parasitic:float -> sys:float array ->
  float array -> float * float

(** [percentile a q] is the ceiling nearest-rank [q]-quantile of [a],
    which need not be sorted: its [ceil (q n)]-th smallest sample in
    [Float.compare] order (the rank clamped to the ends; [0.] on empty
    input).  It selects rather than sorts, in expected [O(n)], and
    leaves [a] reordered in place.  Exposed so the convention is pinned
    by tests. *)
val percentile : float array -> float -> float
