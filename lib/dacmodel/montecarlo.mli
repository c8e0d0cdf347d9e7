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
    domain pool once there are at least {!min_parallel_trials} of them;
    fewer run serially at any [jobs].  Each trial draws from a
    counter-based substream keyed by [(seed, trial)], so the statistics
    are {e bitwise identical} at every [jobs] value (docs/PARALLEL.md).
    Cost: one covariance build unless [cov] is given, one Cholesky
    factorisation, plus [O(N^2)] flops per trial (the correlated draw;
    {!evaluate} is [O(N)]).
    Raises [Invalid_argument] when [trials < 1], and when a draw makes
    the total capacitance non-positive. *)
val run :
  Tech.Process.t -> ?seed:int -> ?theta:float -> ?cov:Capmodel.Covariance.t ->
  ?top_parasitic:float -> ?bound:float -> ?jobs:int -> trials:int ->
  Ccgrid.Placement.t -> t

(** [trial_curves tech ?seed ?theta ?cov ?top_parasitic ?jobs placement
    ~trials] is the per-trial (max |INL|, max |DNL|) list in trial
    order, for callers that want the raw distribution.  Same determinism
    contract as {!run}. *)
val trial_curves :
  Tech.Process.t -> ?seed:int -> ?theta:float -> ?cov:Capmodel.Covariance.t ->
  ?top_parasitic:float -> ?jobs:int -> trials:int -> Ccgrid.Placement.t ->
  (float * float) list

(** Trial count from which {!trial_curves} and {!run} use the domain
    pool.  Below it the pool costs about what it saves (docs/PARALLEL.md
    has the measurement). *)
val min_parallel_trials : int

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

(** [percentile sorted q] is the ceiling nearest-rank [q]-quantile of an
    ascending-sorted array: the [ceil (q n)]-th smallest sample (clamped
    to the ends; [0.] on empty input).  Exposed so the convention is
    pinned by tests. *)
val percentile : float array -> float -> float
