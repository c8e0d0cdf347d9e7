(** Correlated Gaussian sampling for Monte-Carlo mismatch analysis.

    The 3-sigma model of Sec. III-A replaces the "numerical yield
    integrals" of [7]; this module provides the numerical alternative so
    the two can be compared.  Samples are drawn at the capacitor level:
    the joint distribution of [(dC_0, ..., dC_N)] is zero-mean Gaussian
    with exactly the covariance matrix of Eq. 6, so a sample needs only a
    Cholesky factor of an [(N+1) x (N+1)] matrix. *)

(** A lower-triangular Cholesky factor of a covariance.  Factorise once,
    then correlate as many independent normal vectors as needed (the
    Monte-Carlo engine draws one per trial). *)
type factor

(** [factorize cov] factorises the covariance of a built
    {!Covariance.t}.  A tiny diagonal jitter is added if the matrix is
    semidefinite to numerical precision. *)
val factorize : Covariance.t -> factor

(** [size factor] is the number of capacitors [N + 1] it correlates. *)
val size : factor -> int

(** [correlate factor z shifts] writes [L z] into [shifts]: one joint
    sample of the capacitor shifts, fF, from the independent N(0,1)
    variates [z], where [shifts.(i)] sums [L.(i).(k) z.(k)] over
    [k = 0..i] in that order from [0.].  [z] is only read and must not
    be [shifts].  [O(N^2)], allocation-free.  Raises [Invalid_argument]
    unless both arrays have {!size}[ factor] entries. *)
val correlate : factor -> float array -> float array -> unit

(** [cholesky m] is the lower-triangular factor [l] with [l l^T = m].
    Raises [Invalid_argument] when the matrix is not (numerically)
    positive semidefinite or not square.  Exposed for tests. *)
val cholesky : float array array -> float array array
