(** RC trees for interconnect delay analysis.

    Units: resistance in ohm, capacitance in fF, so a delay of
    1 ohm * 1 fF = 1 femtosecond; {!Elmore} reports femtoseconds.

    The builder is mutable and append-only.  The structure must be a tree
    (checked by {!Elmore.delays}); parallel-wire meshes are collapsed to
    equivalent single edges before they reach here (Sec. IV-B4: p wires
    divide wire resistance by p and via resistance by p^2, and multiply
    wire capacitance by p). *)

type t
type node = private int

val create : unit -> t

(** [add_node t ?cap ()] appends a node with grounded capacitance [cap]
    (fF, default 0) and returns it. *)
val add_node : t -> ?cap:float -> unit -> node

(** [add_cap t n c] adds [c] fF at node [n]. *)
val add_cap : t -> node -> float -> unit

(** [add_edge t a b ~r] connects two nodes with resistance [r] >= 0 ohm.
    Raises [Invalid_argument] on negative resistance or equal endpoints. *)
val add_edge : t -> node -> node -> r:float -> unit

(** [wire_edge t a b ~r ~c] adds an edge of resistance [r] carrying a total
    wire capacitance [c], split half to each endpoint (pi model). *)
val wire_edge : t -> node -> node -> r:float -> c:float -> unit

val num_nodes : t -> int
val num_edges : t -> int

(** [node_cap t n] current grounded capacitance at [n], fF. *)
val node_cap : t -> node -> float

(** [total_cap t] sum of node capacitances, fF. *)
val total_cap : t -> float

(** [edges t] as [(a, b, r)] triples in insertion order. *)
val edges : t -> (node * node * float) list

(** [node_of_int t i] casts a valid index back to a node; raises
    [Invalid_argument] when out of range. *)
val node_of_int : t -> int -> node
