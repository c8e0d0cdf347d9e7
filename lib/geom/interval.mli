(** Closed 1-D intervals.

    Channel-sharing decisions in the router (Algorithm 1, line 14) reduce to
    intersecting the horizontal spans of two capacitor groups; coupling
    capacitance between trunk wires reduces to the overlap length of their
    vertical extents. *)

type t = private {
  lo : float;
  hi : float;
}

(** [make a b] is the interval spanning [a] and [b] in either order. *)
val make : float -> float -> t

val length : t -> float
val contains : t -> float -> bool

(** [intersect a b] is the common sub-interval, or [None] when the intervals
    are disjoint.  Touching intervals intersect in a zero-length interval. *)
val intersect : t -> t -> t option

(** [overlap_length a b] is the length of the intersection, 0 if disjoint. *)
val overlap_length : t -> t -> float

(** [hull a b] is the smallest interval containing both. *)
val hull : t -> t -> t
