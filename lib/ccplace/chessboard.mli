(** Chessboard placement of Burcea et al. [7] (Sec. IV-A, Fig. 2b) —
    the dispersion-optimised prior method used as a comparison point.

    Capacitors are assigned from the MSB down by hierarchical parity
    interleaving: C_N takes every cell of one chessboard colour, C_{N-1}
    takes alternate cells of the remaining colour, and so on — each
    capacitor's cells are maximally interspersed, so no two cells of the
    same capacitor are ever 4-adjacent (for capacitors above the last
    levels).  This gives the best dispersion and the worst via counts.

    For odd N, [7] doubles the number of unit capacitors so the array stays
    a square power of two; the doubled placement has [unit_multiplier = 2]
    and twice the area — exactly the behaviour noted under Table I. *)

open Ccgrid

val place : bits:int -> Placement.t

(** [rank ~rows ~cols cell] is the hierarchical-interleave rank in [0, 1):
    cells with rank < 1/2 form one chessboard colour, the next quarter an
    alternating half of the other colour, etc.  It is a dyadic rational:
    [rank_key / 2^D] exactly.  Exposed for tests. *)
val rank : rows:int -> cols:int -> Cell.t -> float

(** [rank_key ~rows ~cols cell] is {!rank} as an exact integer:
    [rank * 2^D], where [D = ceil(log2 rows) + ceil(log2 cols)] is the
    deepest level of the interleave.  Exposed for tests. *)
val rank_key : rows:int -> cols:int -> Cell.t -> int

(** [sort_by_rank ~rows ~cols cells] sorts [cells] by {!rank}, then
    row-major position to break ties deterministically, whatever the
    order of [cells].  Shared with {!Block_chess}, which orders its inner
    core the same way.  Each cell gets one integer key, its {!rank_key}
    above its row-major index, and the keys are LSD radix sorted a byte
    at a time: O(n (D + log2 (rows cols)) / 8) for [n] cells, with no
    comparison sort.  Raises [Invalid_argument] for a cell outside the
    grid. *)
val sort_by_rank : rows:int -> cols:int -> Cell.t list -> Cell.t list
