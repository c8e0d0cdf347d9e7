(** Placement styles evaluated in the paper (Sec. V): the baseline of
    [1] (proxy), the chessboard of [7], and the paper's spiral and
    block-chessboard families. *)



type t =
  | Spiral
  | Chessboard
  | Block_chess of {
      core_bits : int;
      granularity : int;
    }
  | Rowwise  (** constructive proxy for baseline [1]; see DESIGN.md *)

(** [block_default ~bits] is the default BC configuration for [bits]:
    the default core and the largest swept granularity
    ({!block_family}) up to 2, so 2 from 3 bits up and 1 below. *)
val block_default : bits:int -> t

(** [block_family ~bits] lists the BC configurations swept to find the
    paper's "best BC result" (Fig. 4 granularities). *)
val block_family : bits:int -> t list

(** [place ~bits style] runs the placement algorithm. *)
val place : bits:int -> t -> Ccgrid.Placement.t

val name : t -> string

(** Short column label used by the paper's tables: "[1]", "[7]", "S", "BC". *)
val label : t -> string

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
