(** Power-of-two complex FFT — the numeric substrate of the lattice
    mismatch-covariance kernel ({!Lattice}).

    A convolution multiplies spectra pointwise, so the two directions
    skip the bit-reversal permutation: {!forward} (decimation in
    frequency) reads natural order and leaves the spectrum bit-reversed,
    and {!inverse} (decimation in time) reads that order back.  Stages
    are radix-4, with one radix-2 stage at span [n] and, for even
    [log2 n], one at span 2.  Twiddles come from [cos]/[sin] tables built
    once per length.  Self-contained, no external dependencies. *)

(** The twiddle tables and stage plan of one length. *)
type t

(** [plan n] for a power of two [n >= 1]; raises [Invalid_argument]
    otherwise. *)
val plan : int -> t

(** The transform length. *)
val size : t -> int

(** [reversed t i] is [i] with its [log2 (size t)] low bits reversed:
    after {!forward}, entry [i] holds frequency [reversed t i]. *)
val reversed : t -> int -> int

(** [forward t ~re ~im] replaces the sequence by its DFT
    [X(f) = sum_k x(k) e^(-2 pi i f k / n)], entry [i] holding
    [X (reversed t i)].  With [~half:true] the second half of the input
    is taken as zero and not read (a zero-padded input).  Raises
    [Invalid_argument] unless both arrays have length [size t]. *)
val forward : ?half:bool -> t -> re:float array -> im:float array -> unit

(** [inverse t ~re ~im] takes a spectrum in {!forward}'s order back to
    natural order, unnormalised: [inverse (forward x) = n x].  With
    [~half:true] only the first half of the output ([max 1 (n/2)]
    entries) is computed; the rest holds intermediate values. *)
val inverse : ?half:bool -> t -> re:float array -> im:float array -> unit

(** [forward_columns t ~re ~im] applies {!forward} to every column of the
    matrix with rows [re.(k)], [im.(k)] ([size t] rows of one width).
    Each butterfly runs along whole rows, so no column is copied out.
    [~half:true] takes the second half of the rows as zero.  [~cols:w]
    transforms only the first [w] columns and leaves the rest untouched.
    Raises [Invalid_argument] on a wrong row count, ragged rows or a
    bound outside [0, width]. *)
val forward_columns :
  ?half:bool -> ?cols:int -> t -> re:float array array -> im:float array array -> unit

(** [inverse_columns t ~re ~im] applies {!inverse} to every column;
    [~half:true] computes only the first half of the rows. *)
val inverse_columns :
  ?half:bool -> t -> re:float array array -> im:float array array -> unit
