(** Yield-driven unit-capacitor sizing.

    Sec. II-A: "Increasing C_u can reduce these effects, at the cost of
    increased power.  Moreover, as C_u increases, so does the array area."
    Combined with the Monte-Carlo engine this becomes a sizing loop — the
    optimisation that [7] performs with numerical yield integrals: find
    the smallest unit capacitor whose layout meets a linearity yield
    target.

    Scaling model: MOM capacitance density is fixed, so a candidate C_u
    scales the unit-cell area linearly (side by sqrt(C_u / C_u0)); the
    relative mismatch then improves as 1/sqrt(C_u) (Pelgrom) and the
    gradient/correlation distances grow with the array. *)

type candidate = {
  unit_cap_ff : float;
  area : float;                      (** routed area at this C_u, um^2 *)
  f3db_mhz : float;
  mc : Dacmodel.Montecarlo.t;        (** Monte-Carlo linearity statistics *)
}

(** [scale_tech tech ~unit_cap] derives a technology with the given C_u
    and correspondingly scaled unit-cell geometry, each cell side rounded
    to a whole nanometre so the routed layout stays on the LVS grid
    ({!Lvs.Shape}). *)
val scale_tech : Tech.Process.t -> unit_cap:float -> Tech.Process.t

(** [evaluate ?tech ?trials ?bound ?jobs ~bits ~style ~unit_cap ()] runs
    the flow and the Monte-Carlo analysis at one candidate C_u ([jobs]
    parallelises the Monte-Carlo trials). *)
val evaluate :
  ?tech:Tech.Process.t -> ?trials:int -> ?bound:float -> ?jobs:int ->
  bits:int -> style:Ccplace.Style.t -> unit_cap:float -> unit -> candidate

(** [minimum_unit_cap ?tech ?trials ?bound ?target_yield ?jobs ~bits
    ~style candidates] evaluates the (ascending) candidate C_u values and
    returns the first meeting the yield target (default 0.99), or [None]
    with all candidates exhausted.  Returns the evaluation trace
    alongside.

    With [jobs > 1] the walk speculates: [jobs] candidates are evaluated
    in parallel per round, and speculative work past the earliest passing
    candidate is discarded — answer and trace are byte-identical to the
    serial walk at every [jobs] value (docs/PARALLEL.md). *)
val minimum_unit_cap :
  ?tech:Tech.Process.t -> ?trials:int -> ?bound:float -> ?target_yield:float ->
  ?jobs:int -> bits:int -> style:Ccplace.Style.t -> float list ->
  candidate option * candidate list
