(** Systematic variation: linear oxide-thickness gradient (Sec. II-C1).

    With the common-centroid point as the origin, the oxide thickness at a
    point [(x, y)] is [t = t0 * (1 + g * (x cos th + y sin th))] where [g] is
    the gradient magnitude ([Process.gradient_ppm], converted from ppm/um)
    and [th] the gradient angle.  A unit capacitor at that point has value
    [Cu * t0 / t] (Eq. 3): the absolute thickness [t0] cancels, so only the
    relative gradient enters. *)

(** [thickness_ratio tech ?theta p] is [t0 / t_j] at point [p].  [theta]
    defaults to [tech.gradient_theta]. *)
val thickness_ratio : Tech.Process.t -> ?theta:float -> Geom.Point.t -> float

(** [unit_value tech ?theta p] is the value in fF of one unit capacitor
    centred at [p]. *)
val unit_value : Tech.Process.t -> ?theta:float -> Geom.Point.t -> float

(** [capacitor_value tech ?theta positions] is the summed value [C_k^*] of a
    capacitor realised by unit cells at [positions] (Eq. 3). *)
val capacitor_value :
  Tech.Process.t -> ?theta:float -> Geom.Point.t array -> float

(** [systematic_shift tech ?theta positions] is
    [Delta C_k^sys = C_k^* - n_k * C_u] (Eq. 12) where [n_k] is the number
    of positions. *)
val systematic_shift :
  Tech.Process.t -> ?theta:float -> Geom.Point.t array -> float

(** [grid_values tech ?theta ~xs ~ys ~caps ids] is {!capacitor_value}
    of every capacitor [0 .. caps - 1] of a grid without building its
    points: the cell at row [r] and column [c] sits at
    [(xs.(c), ys.(r))] and belongs to capacitor [ids.(r).(c)] (any other
    id is skipped).  Each capacitor's cells are added in row-major
    order, so entry [k] is bitwise [capacitor_value] of capacitor [k]'s
    positions listed in that order. *)
val grid_values :
  Tech.Process.t -> ?theta:float -> xs:float array -> ys:float array -> caps:int ->
  int array array -> float array

(** [worst_theta ~samples ~objective] sweeps the gradient angle over
    [samples] values in [0, pi) and returns the angle maximising
    [objective theta] together with the objective value.  [samples >= 1]. *)
val worst_theta :
  samples:int -> objective:(float -> float) -> float * float
