(** Radix-2 complex FFT — the numeric substrate of the lattice
    mismatch-covariance kernel ({!Lattice}).

    Self-contained iterative Cooley-Tukey implementation (no external
    dependencies), sufficient for the row/column passes of the 2-D
    correlation transforms. *)

(** [fft ~re ~im] transforms in place.  Lengths must match and be a power
    of two; raises [Invalid_argument] otherwise. *)
val fft : re:float array -> im:float array -> unit

(** [ifft ~re ~im] inverse transform in place (normalised by 1/n). *)
val ifft : re:float array -> im:float array -> unit
