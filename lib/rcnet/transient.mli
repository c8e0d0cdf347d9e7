(** Transient simulation of an RC tree — the numerical check behind the
    Elmore-based settling model (Sec. III-B).

    The driver steps from 0 to [vstep] at t = 0 through the tree's root.
    Node voltages follow [C dv/dt = -G v + b]; we integrate with backward
    Euler, which is unconditionally stable and solvable in O(nodes) per
    step on a tree (one up-sweep eliminating leaves, one down-sweep
    back-substituting), along the breadth-first order of
    {!Rctree.orient}, the orientation {!Elmore} uses.

    Units: ohm, fF, femtoseconds — consistent with {!Rctree}. *)

type waveform = {
  times_fs : float array;
  voltages : float array array;  (** [voltages.(step).(node)] *)
}

(** [simulate tree ~root ~vstep ~dt_fs ~steps] integrates the step response.
    The root is an ideal voltage source at [vstep] for t >= 0.
    Raises [Invalid_argument] on a non-tree, [dt_fs <= 0] or
    [steps < 1]. *)
val simulate :
  Rctree.t -> root:Rctree.node -> vstep:float -> dt_fs:float -> steps:int ->
  waveform

(** [settling_time_fs tree ~root ~vstep ~tolerance ~node] is the first time
    the voltage of [node] stays within [tolerance * vstep] of [vstep]
    forever after (measured on an adaptive grid sized from the Elmore
    delay).  Raises [Invalid_argument] if the node never settles within
    the simulated horizon (50x the Elmore delay). *)
val settling_time_fs :
  Rctree.t -> root:Rctree.node -> vstep:float -> tolerance:float ->
  node:Rctree.node -> float

(** [slowest_settling_fs tree ~root ~vstep ~tolerance ~over] is the largest
    {!settling_time_fs} over the given nodes. *)
val slowest_settling_fs :
  Rctree.t -> root:Rctree.node -> vstep:float -> tolerance:float ->
  over:Rctree.node list -> float
