(** RC trees for interconnect delay analysis.

    Units: resistance in ohm, capacitance in fF, so a delay of
    1 ohm * 1 fF = 1 femtosecond; {!Elmore} reports femtoseconds.

    The builder is mutable and append-only.  Node capacitances and edges
    live in flat arrays: an edge is two endpoint slots and a resistance
    slot, with no per-edge record or list.  The structure must be a tree
    (checked by {!orient}); parallel-wire meshes are collapsed to
    equivalent single edges before they reach here (Sec. IV-B4: p wires
    divide wire resistance by p and via resistance by p^2, and multiply
    wire capacitance by p). *)

type t
type node = private int

val create : unit -> t

(** [add_node t ?cap ()] appends a node with grounded capacitance [cap]
    (fF, default 0) and returns it. *)
val add_node : t -> ?cap:float -> unit -> node

(** [reserve_nodes t n] makes room for [n] nodes in all, so that adding
    up to [n] nodes allocates nothing more. *)
val reserve_nodes : t -> int -> unit

(** [add_cap t n c] adds [c] fF at node [n]. *)
val add_cap : t -> node -> float -> unit

(** [add_edge t a b ~r] connects two nodes with resistance [r] >= 0 ohm.
    Raises [Invalid_argument] on negative resistance or equal endpoints. *)
val add_edge : t -> node -> node -> r:float -> unit

(** [reserve_edges t n] makes room for [n] edges in all, so that adding
    up to [n] edges allocates nothing more.  A builder that knows its
    node count and builds a spanning tree (of [k] nodes: [k - 1] edges)
    reserves both once.  Without a reservation either array doubles as
    it fills. *)
val reserve_edges : t -> int -> unit

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

(** The tree hung from a root: every node's parent, the edge to it and
    that edge's resistance, and a breadth-first order. *)
type orientation = {
  parent : int array;       (** parent node; -1 at the root *)
  parent_edge : int array;  (** insertion index of the edge to the parent;
                                -1 at the root *)
  parent_r : float array;   (** that edge's resistance, ohm; 0 at the root *)
  order : int array;        (** breadth-first order, root first *)
}

(** [orient t ~root] hangs the tree from [root], breadth first, each
    node's edges taken in reverse insertion order.  The one orientation
    behind {!Elmore} and {!Transient}.  It allocates its arrays per call,
    each sized exactly: a CSR adjacency of edge ids, used as scratch, and
    the four returned arrays; the BFS queue is [order].  O(nodes).
    Raises [Invalid_argument] when the graph is not a tree spanning all
    nodes (edge count other than nodes - 1, or disconnected) or [root]
    is out of range. *)
val orient : t -> root:node -> orientation
