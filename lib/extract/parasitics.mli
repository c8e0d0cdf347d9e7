(** Electrical metrics of the routed array — the quantities of Table I.

    Per capacitor: physical via-cut count, routed wirelength (physical
    metal: a p-wire bundle counts p times its centreline length), total via
    resistance [R_V] (sum of effective junction resistances, each
    [R_via / p^2]), total wire resistance, wire capacitance to ground, and
    the worst-case Elmore delay of the charging network.

    Array totals: [sum C^TS] (top-plate-to-substrate of the top-plate
    routing), [sum C^wire], [sum C^BB] (coupling between adjacent trunk
    tracks sharing a channel), [sum N_V], [sum L], plus the critical bit —
    the capacitor whose Elmore delay limits the 3 dB frequency. *)

type bit_metrics = {
  bm_cap : int;
  bm_via_cuts : int;          (** physical via cuts ([p^2] per junction) *)
  bm_bends : int;             (** orthogonal same-net junctions: stub-trunk
                                  attaches + bridge landings *)
  bm_wirelength : float;      (** um of physical metal *)
  bm_via_resistance : float;  (** ohm, sum of junction resistances *)
  bm_wire_resistance : float; (** ohm, sum over wires of r l / p *)
  bm_wire_cap : float;        (** fF to ground *)
  bm_elmore_fs : float;       (** worst-case Elmore delay, femtoseconds *)
}

type t = {
  per_bit : bit_metrics array;   (** indexed by capacitor id, 0..N *)
  total_top_cap : float;         (** sum C^TS, fF *)
  total_wire_cap : float;        (** sum C^wire, fF *)
  total_coupling_cap : float;    (** sum C^BB, fF *)
  total_via_cuts : int;          (** sum N_V *)
  total_bends : int;             (** sum of per-net bends *)
  total_wirelength : float;      (** sum L, um *)
  critical_bit : int;
  critical_elmore_fs : float;
  area : float;                  (** routed-array area, um^2 *)
}

(** [extract layout] computes every metric, solving each capacitor's
    RC tree once for its Elmore delay ({!Netbuild.solve}), every net on
    one {!Netbuild.scratch} of the layout.  The wires and vias are
    bucketed by capacitor once, in layout order, and the adjacent-track
    coupling reads per-channel track arrays, so besides the per-bit
    solves, which dominate, the cost is linear in the layout. *)
val extract : Ccroute.Layout.t -> t

(** [total_resistance m] of a bit: [R_V + R_wire], ohm. *)
val total_resistance : bit_metrics -> float
