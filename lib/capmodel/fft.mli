(** Radix-2 complex FFT — the numeric substrate for spectral DAC metrics
    and for the lattice mismatch-covariance kernel ({!Lattice}).

    Self-contained iterative Cooley-Tukey implementation (no external
    dependencies), sufficient for the 2^10..2^16-point spectra used in
    converter characterisation and for the row/column passes of the 2-D
    correlation transforms. *)

(** [fft ~re ~im] transforms in place.  Lengths must match and be a power
    of two; raises [Invalid_argument] otherwise. *)
val fft : re:float array -> im:float array -> unit

(** [ifft ~re ~im] inverse transform in place (normalised by 1/n). *)
val ifft : re:float array -> im:float array -> unit

(** [magnitude ~re ~im k] is [sqrt (re_k^2 + im_k^2)]. *)
val magnitude : re:float array -> im:float array -> int -> float

(** [power_spectrum ~re ~im] is the one-sided power spectrum of a real
    signal previously transformed with {!fft}: bins [0 .. n/2], with the
    interior bins doubled to account for negative frequencies. *)
val power_spectrum : re:float array -> im:float array -> float array

(** [hann n] is the length-[n] Hann window. *)
val hann : int -> float array

(** [is_power_of_two n]. *)
val is_power_of_two : int -> bool
