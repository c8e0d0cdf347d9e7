(** Mismatch-induced nonlinearity: INL and DNL under the 3-sigma model
    (Sec. III-A, Eq. 7–14).

    For every input code the systematic shifts (oxide gradient, Eq. 12)
    and the 3-sigma point of the correlated random variation (Eq. 13–14)
    perturb [C_ON] and [C_T]; the top-plate parasitic [C^TS] loads the
    summing node and adds to [C_T] (gain error).  [C^TB] terms vanish
    under the non-overlapped routing of Sec. IV-B1. *)

type sign_mode =
  | Paper       (** add +3 sigma to both numerator and denominator, as the
                    paper's Eq. after (14) states *)
  | Worst_case  (** maximise |INL|/|DNL| over the four +-3 sigma sign
                    combinations *)

type t = {
  inl : float array;       (** per code, LSB; length [2^N] *)
  dnl : float array;       (** per code, LSB; [dnl.(0) = 0] *)
  max_abs_inl : float;
  max_abs_dnl : float;
  sigma_t : float;         (** sigma of the total-capacitance shift, fF *)
}

(** [covariance tech placement] is the Eq. 6 covariance of the
    placement's capacitors ({!Capmodel.Covariance.build} on
    {!Ccgrid.Placement.positions_by_cap}).  {!analyze}, {!attribute} and
    {!Montecarlo.run} take it as [?cov], so a flow builds it once. *)
val covariance : Tech.Process.t -> Ccgrid.Placement.t -> Capmodel.Covariance.t

(** [analyze tech ?theta ?profile ?cov ?sign_mode ?top_parasitic placement]:
    [top_parasitic] is the extracted [sum C^TS] in fF (default 0);
    [theta] overrides the gradient angle; [profile] replaces the linear
    gradient with an arbitrary {!Capmodel.Profile} (curvature studies);
    [cov] is [covariance tech placement], built here when absent;
    [sign_mode] defaults to [Paper].  Cost: one covariance build
    ([O(N G log G)] for [G] unit cells, {!Capmodel.Lattice}) unless [cov]
    is given, plus [O(2^N + N^2)] for the INL codes (each code's on-set
    variance and systematic shift follow from a code with one bit fewer,
    and every sign combination shares them) and [O(N^3 + 2^N)] for the
    DNL (a step depends only on how many bits toggle, so the [N]
    distinct steps are evaluated once). *)
val analyze :
  Tech.Process.t -> ?theta:float -> ?profile:Capmodel.Profile.t ->
  ?cov:Capmodel.Covariance.t -> ?sign_mode:sign_mode -> ?top_parasitic:float ->
  Ccgrid.Placement.t -> t

(** One capacitor's share of the worst-code INL. *)
type inl_share = {
  cap : int;                (** capacitor index; [0] is the grounded C_0 *)
  on : bool;                (** switched to [V_REF] at the worst code *)
  systematic_lsb : float;   (** oxide-gradient share *)
  random_lsb : float;       (** correlated 3-sigma mismatch share *)
  total_lsb : float;        (** [systematic_lsb +. random_lsb] *)
}

(** Per-capacitor decomposition of the INL at the worst code. *)
type attribution = {
  code : int;               (** argmax of [|inl|] over all codes *)
  inl_lsb : float;          (** [inl.(code)] under [Paper] signs *)
  shares : inl_share list;  (** one per capacitor, index order *)
  parasitic_lsb : float;    (** top-plate parasitic pseudo-share *)
}

(** [attribute tech ?theta ?profile ?cov ?top_parasitic placement] decomposes
    the worst-code INL per capacitor: the systematic shifts split
    directly, the correlated 3-sigma terms split through covariance row
    sums (each capacitor gets the sigma mass in proportion to its
    covariance with the rest of the subset), and the top-plate parasitic
    keeps its own pseudo-share.  The [total_lsb] fields plus
    [parasitic_lsb] sum to [inl_lsb] exactly (up to float association).
    Uses [Paper] signs, matching the [inl] array {!analyze} reports in
    every sign mode.  Same cost as {!analyze}'s INL pass. *)
val attribute :
  Tech.Process.t -> ?theta:float -> ?profile:Capmodel.Profile.t ->
  ?cov:Capmodel.Covariance.t -> ?top_parasitic:float -> Ccgrid.Placement.t ->
  attribution
