(** RC trees for interconnect delay analysis.

    Units: resistance in ohm, capacitance in fF, so a delay of
    1 ohm * 1 fF = 1 femtosecond; {!Elmore} reports femtoseconds.

    Node capacitances and edges live in flat arrays: an edge is two
    endpoint slots and a resistance slot, with no per-edge record or
    list.  A tree is built by appending ({!add_node}, {!add_edge}), or,
    by a caller that builds many in a row, written in place: {!refill}
    sizes it and the caller fills {!caps}, {!ends_a}, {!ends_b} and
    {!res} directly, with no call (and so no boxed float) per edge.  The
    structure must be a tree (checked by {!orient}); parallel-wire
    meshes are collapsed to equivalent single edges before they reach
    here (Sec. IV-B4: p wires divide wire resistance by p and via
    resistance by p^2, and multiply wire capacitance by p). *)

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

(** [node_caps t] is a fresh array of every node's grounded
    capacitance, fF, indexed by node. *)
val node_caps : t -> float array

(** [total_cap t] sum of node capacitances, fF. *)
val total_cap : t -> float

(** [edge t e] is the [e]-th edge in insertion order as [(a, b, r)].
    Raises [Invalid_argument] when [e] is not below {!num_edges}. *)
val edge : t -> int -> node * node * float

(** [node_of_int t i] casts a valid index back to a node; raises
    [Invalid_argument] when out of range. *)
val node_of_int : t -> int -> node

(** [refill t ~nodes ~edges] makes [t] a tree of [nodes] nodes, each of
    zero capacitance, and [edges] edges whose ends and resistances are
    unspecified until written, keeping [t]'s arrays when they are large
    enough.  Raises [Invalid_argument] on a negative size. *)
val refill : t -> nodes:int -> edges:int -> unit

(** The arrays behind [t], to write a refilled tree in place: node [i]'s
    capacitance is [(caps t).(i)], and edge [e] joins [(ends_a t).(e)]
    and [(ends_b t).(e)] through [(res t).(e)] ohm.  Slots at or past
    {!num_nodes} and {!num_edges} are spare room.  The writer keeps what
    {!add_edge} and {!wire_edge} check (ends distinct and in range,
    values non-negative); {!orient} checks only the shape.  An append
    that grows [t] replaces these arrays. *)
val caps : t -> float array
val ends_a : t -> int array
val ends_b : t -> int array
val res : t -> float array

(** The tree hung from a root: every node's parent, the edge to it and
    that edge's resistance, and a breadth-first order.  Slot [i] of each
    array is node [i]'s (of [order]: the [i]-th node reached), for [i]
    below {!num_nodes}; an orientation in a {!scratch} may be longer. *)
type orientation = {
  parent : int array;       (** parent node; -1 at the root *)
  parent_edge : int array;  (** insertion index of the edge to the parent;
                                -1 at the root *)
  parent_r : float array;   (** that edge's resistance, ohm; 0 at the root *)
  order : int array;        (** breadth-first order, root first *)
}

(** Room for orienting trees one after another: the arrays of an
    {!orientation} and the CSR adjacency of edge ids {!orient} builds,
    reallocated at exactly a tree's size when they are smaller. *)
type scratch

(** [scratch n] has room for trees of up to [n] nodes. *)
val scratch : int -> scratch

(** [orient ?scratch t ~root] hangs the tree from [root], breadth first,
    each node's edges taken in reverse insertion order.  The one
    orientation behind {!Elmore} and {!Transient}.  Its arrays are
    [scratch]'s, overwritten by its next use, or without one fresh
    arrays of exactly [num_nodes t] slots; the BFS queue is [order].
    O(nodes).  Raises [Invalid_argument] when the graph is not a tree
    spanning all nodes (edge count other than nodes - 1, or
    disconnected) or [root] is out of range. *)
val orient : ?scratch:scratch -> t -> root:node -> orientation
