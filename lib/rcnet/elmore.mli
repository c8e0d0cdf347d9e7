(** Elmore delay of an RC tree (Sec. III-B).

    The Elmore delay from the root to node [n] is
    [sum over edges e on the root->n path of R_e * C_downstream(e)], the
    first moment of the impulse response — the standard interconnect delay
    estimate [16].

    Every query hangs the tree from [root] with {!Rctree.orient} (flat
    arrays, no lists), then sums subtree capacitances bottom-up in
    reverse breadth-first order.  {!delays} turns that array into the
    delays in place, top-down in breadth-first order.  O(nodes) per
    query.  A caller that solves many trees in a row passes one
    {!scratch} to every {!delays}: the orientation and the delays then
    reuse its arrays, and a solve allocates nothing in proportion to the
    tree. *)

(** Room for solving trees one after another: an {!Rctree.scratch} and
    the array the delays are summed in, reallocated at exactly a tree's
    size when it is smaller. *)
type scratch

(** [scratch n] has room for trees of up to [n] nodes. *)
val scratch : int -> scratch

(** [delays ?scratch tree ~root] computes the Elmore delay (femtoseconds:
    ohm x fF) from [root] to every node, indexed by node.  With [scratch]
    the result is the scratch's own array, overwritten by its next use
    and possibly longer than the tree; without, a fresh array of
    [num_nodes tree] slots.  Either way the delays are bit for bit the
    same.  Raises [Invalid_argument] when the graph is not a tree
    spanning all nodes (cycle or disconnected). *)
val delays : ?scratch:scratch -> Rctree.t -> root:Rctree.node -> float array

(** [delay_to tree ~root n]. *)
val delay_to : Rctree.t -> root:Rctree.node -> Rctree.node -> float

(** [max_delay tree ~root ~over] is the maximum delay over the given
    nodes; over all nodes when [over] is empty. *)
val max_delay : Rctree.t -> root:Rctree.node -> over:Rctree.node list -> float

(** [path_resistance tree ~root n] is the total resistance (ohm) along the
    root->n path. *)
val path_resistance : Rctree.t -> root:Rctree.node -> Rctree.node -> float

(** One edge's share of an Elmore delay: the path edge's resistance times
    the capacitance of the subtree hanging below it. *)
type contribution = {
  edge : int;                (** the edge's insertion index, as {!Rctree.edge}
                                 takes it *)
  upstream : Rctree.node;    (** endpoint closer to the root *)
  downstream : Rctree.node;
  r : float;                 (** ohm *)
  c_downstream : float;      (** fF: total capacitance below the edge *)
  delay : float;             (** [r *. c_downstream], femtoseconds *)
}

(** [breakdown tree ~root n] is the per-edge decomposition of the Elmore
    delay from [root] to [n]: the edges of the root->n path in root-first
    order, whose [delay] fields sum {e exactly} (up to float association)
    to [delay_to tree ~root n].  This is the attribution primitive behind
    [ccgen explain]: map [edge] back to the physical element that created
    it to name each wire segment's and via stack's share of the worst-bit
    delay.  Same preconditions as {!delays}. *)
val breakdown :
  Rctree.t -> root:Rctree.node -> Rctree.node -> contribution list
