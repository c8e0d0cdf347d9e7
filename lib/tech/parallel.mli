(** Parallel-wire electrical transforms (Sec. IV-B4).

    FinFET metal widths are quantised, so a wider effective wire is built
    from [p] minimum-width wires routed side by side.  With [p] parallel
    wires: wire resistance divides by [p], wire capacitance multiplies by
    [p], and a layer change becomes a [p x p] via array whose effective
    resistance divides by [p^2]. *)

(** [check_p p] raises [Invalid_argument] unless [p >= 1], as every
    function below does first. *)
val check_p : int -> unit

(** [wire_resistance layer ~length ~p] in ohm.  Requires [p >= 1],
    [length >= 0]. *)
val wire_resistance : Layer.t -> length:float -> p:int -> float

(** [wire_capacitance layer ~length ~p] to ground, in fF. *)
val wire_capacitance : Layer.t -> length:float -> p:int -> float

(** [via_resistance tech ~p] of one logical junction ([p^2] physical cuts). *)
val via_resistance : Process.t -> p:int -> float

(** [via_count ~p] physical via cuts of one logical junction. *)
val via_count : p:int -> int

(** [bundle_width tech ~p] lateral space occupied by a [p]-wire bundle, um. *)
val bundle_width : Process.t -> p:int -> float

(** [track_span tech ~p] channel width consumed by one routing track carrying
    a [p]-wire bundle, including the spacing to the next track, um. *)
val track_span : Process.t -> p:int -> float
