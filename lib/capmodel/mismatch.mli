(** Random variation of unit capacitors (Sec. II-C2).

    Each unit capacitor carries a zero-mean random variation with
    [sigma_u^2 = A_f^2 / (W H)] — exposed through
    [Tech.Process.sigma_u] — and variations of two unit capacitors [A], [B]
    are correlated with coefficient [rho_AB = rho_u ^ (D(A,B) / L_c)]
    (Eq. 4–5), where [D] is the Euclidean distance between cell centres. *)

(** [correlation tech a b] is [rho_AB] in [0, 1]. *)
val correlation : Tech.Process.t -> Geom.Point.t -> Geom.Point.t -> float

(** [pair_sum tech ps qs] is [S_pq = sum_{a in ps} sum_{b in qs} rho_ab]
    over distinct ordered pairs drawn from two different capacitors
    (Eq. 6, cross term).  Each cell of [ps] sums its own pairs into a
    partial sum, and the partial sums are added, so the result carries
    the rounding of about [|ps| + |qs|] additions, not [|ps| |qs|]. *)
val pair_sum :
  Tech.Process.t -> Geom.Point.t array -> Geom.Point.t array -> float

(** [intra_sum tech ps] is [S_p = sum_{a<b} rho_ab] over unordered pairs of
    one capacitor's cells (Eq. 6, intra term), summed per cell [a] as in
    {!pair_sum}. *)
val intra_sum : Tech.Process.t -> Geom.Point.t array -> float
