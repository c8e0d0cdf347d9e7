(** Whole-layout connectivity extraction.

    Each metal layer's contacts come in two parts.  Its wires and vias
    go through one {!Geom.Sweepline} pass (all three layers share one
    sweep scratch), which reports every contact among them once.  Its
    cell plates (pads on M1, top pads on M2) are points on the
    placement's row/column lattice and never enter the sweep: each wire
    or via finds the plates it covers by two lower bounds on the sorted
    lattice coordinates (a bucket table of about two buckets per
    coordinate, then a short forward scan), and plates sharing a lattice
    point, which only a lattice that repeats a column x or row y has,
    are paired directly.  Every contact pair goes straight into a
    union-find as it arrives; the union-find closes connectivity across
    layers through vias (a via's single shape id has a box on both M1 and
    M3, so its same-layer contacts merge the two layers' components).

    A layer of n wires and vias and k contacts costs the sweep's
    O(n·d + k + Σ_q (log m + b_q / 32)), d being its radix digit passes,
    m the shapes of its smaller wire direction and b_q those in the band
    of each other wire or via q, plus O(n + k) lattice lookups and a
    union-find step per contact: path halving, linking the larger root
    under the smaller (O(log n) amortised), so a component's root is its
    lowest shape id and the numbering needs no second table.  The result
    partitions the flattened shape set into electrical components — the
    extracted nets. *)

type t = {
  comp_of : int array;     (** shape id -> dense component index *)
  n_components : int;
  n_contacts : int;        (** same-layer contact pairs found *)
  sort_keys : int;         (** keys the three sweeps' radix sorts ordered
                               ({!Geom.Sweepline.sort_keys}) *)
}

(** [contacts shapes layer f] calls [f a b] exactly once for every
    unordered pair of distinct shape ids in contact on [layer]: the
    sweep's pairs among its wires and vias, each of those with the
    plates it covers, and the pairs of coincident plates, in that order
    and in no specified order within each part. *)
val contacts : Shape.t -> Tech.Layer.name -> (int -> int -> unit) -> unit

(** [extract shapes] finds every layer's {!contacts} and joins them in
    the union-find.  Component indices are dense, numbered in order of
    each component's lowest shape id. *)
val extract : Shape.t -> t
