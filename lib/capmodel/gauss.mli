(** Correlated Gaussian sampling for Monte-Carlo mismatch analysis.

    The 3-sigma model of Sec. III-A replaces the "numerical yield
    integrals" of [7]; this module provides the numerical alternative so
    the two can be compared.  Samples are drawn at the capacitor level:
    the joint distribution of [(dC_0, ..., dC_N)] is zero-mean Gaussian
    with exactly the covariance matrix of Eq. 6, so a sample needs only a
    Cholesky factor of an [(N+1) x (N+1)] matrix. *)

(** A lower-triangular Cholesky factor of a covariance.  Factorise once,
    then draw from as many independent [Random.State] substreams as
    needed (the parallel Monte-Carlo engine draws one per trial). *)
type factor

(** [factorize cov] factorises the covariance of a built
    {!Covariance.t}.  A tiny diagonal jitter is added if the matrix is
    semidefinite to numerical precision. *)
val factorize : Covariance.t -> factor

(** [draw_from factor state] is one joint sample of the capacitor
    shifts, fF, using [state]'s variates. *)
val draw_from : factor -> Random.State.t -> float array

(** [cholesky m] is the lower-triangular factor [l] with [l l^T = m].
    Raises [Invalid_argument] when the matrix is not (numerically)
    positive semidefinite or not square.  Exposed for tests. *)
val cholesky : float array array -> float array array

(** [standard_normal state] draws one N(0,1) variate (Box-Muller). *)
val standard_normal : Random.State.t -> float
