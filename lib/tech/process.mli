(** Technology description.

    The paper evaluates on a commercial 12 nm FinFET process whose exact
    constants are proprietary.  [finfet_12nm] is a synthetic stand-in with
    FinFET-class magnitudes: high per-um wire resistance, via resistance
    comparable to several micrometres of wire, 64 nm routing pitch, and MOM
    unit capacitors of 5 fF built in three metal layers (bottom plate on M1,
    top plate on M2).  All comparisons in the paper are relative between
    placement styles under one technology, so only these magnitudes and
    their ratios matter, not the exact proprietary values; see DESIGN.md.

    Units: lengths in um, resistance in ohm, capacitance in fF,
    angle in radians. *)

type t = {
  name : string;
  stack : Layer.t list;         (** M1..M3 with reserved directions *)
  via_resistance : float;       (** ohm per single via cut *)
  plate_resistance : float;     (** ohm/um of abutting-finger (device-layer)
                                    conduction between adjacent unit cells of
                                    one capacitor.  Much smaller than routing
                                    wire resistance: the merged MOM fingers
                                    are wide multi-layer plates.  This is what
                                    lets a connected group charge through its
                                    own body from one short trunk (Sec. V:
                                    "nearest-neighbor connections using the
                                    same metal layer with no vias"). *)
  wire_pitch : float;           (** minimum routing pitch in channels, um *)
  cell_width : float;           (** unit MOM capacitor width, um *)
  cell_height : float;          (** unit MOM capacitor height, um *)
  cell_spacing : float;         (** spacing between adjacent unit cells, um *)
  unit_cap : float;             (** C_u, fF *)
  top_substrate_cap : float;    (** top-plate wire cap to substrate, fF/um *)
  gradient_ppm : float;         (** oxide gradient magnitude, ppm/um (Sec. II-C1) *)
  gradient_theta : float;       (** oxide gradient angle, radians in [0, pi] *)
  rho_u : float;                (** correlation base, Eq. 4 *)
  corr_length : float;          (** L_c, um, Eq. 5.  The paper quotes
                                    rho_u = 0.9, L_c = 1 mm from [1], [8];
                                    with distances in um that renders every
                                    placement statistically identical
                                    (rho > 0.99 across the whole array), so
                                    the presets use an L_c of the order of
                                    one cell pitch — rho_u per neighbouring
                                    cell, the grid-scale reading of the
                                    correlation model.  See DESIGN.md. *)
  mismatch_coeff : float;       (** A_f expressed as the fractional sigma of a
                                    1 fF capacitor: sigma_u/C_u =
                                    mismatch_coeff * sqrt(1 fF / C_u) *)
}

(** Synthetic 12 nm FinFET-class preset used for all paper experiments:
    C_u = 5 fF, 64 nm pitch, gamma = 10 ppm/um, rho_u = 0.9, L_c = 1 mm,
    A_f = 0.85 % at 1 fF — the constants quoted in Sec. V. *)
val finfet_12nm : t

(** Bulk-node preset for the ablation of Sec. I's claim: vias are nearly
    free (sub-ohm) and wires are several times less resistive, which is the
    regime where chessboard-style high-via placements were viable. *)
val bulk_legacy : t

(** Horizontal centre-to-centre pitch of unit cells, excluding channels. *)
val cell_pitch_x : t -> float

(** Vertical centre-to-centre pitch of unit cells. *)
val cell_pitch_y : t -> float

(** Fractional standard deviation sigma_u / C_u of one unit capacitor,
    from the Tripathi-Murmann style coefficient (Sec. II-C2). *)
val sigma_rel : t -> float

(** Absolute sigma_u of one unit capacitor, fF. *)
val sigma_u : t -> float

(** [layer t n] is layer [n] of [t]'s stack ({!Layer.find}: a list
    search).  Raises [Invalid_argument] when the stack lacks it. *)
val layer : t -> Layer.name -> Layer.t

(** [layers t] is {!layer}[ t] for a loop over many wires: each layer
    is looked up on its first use and remembered, so a tech missing a
    layer raises exactly where [layer] would, and only then.  Make one
    per loop; it is not meant to be shared between domains. *)
val layers : t -> Layer.name -> Layer.t
val pp : Format.formatter -> t -> unit
