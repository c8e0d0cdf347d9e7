(** Axis-aligned contact detection by plane sweep.

    The LVS extractor reduces same-layer connectivity to one question: which
    pairs of axis-aligned shapes (wire segments, via landings, plate pads
    collapsed to points) touch?  A naive all-pairs test is O(n²); this module
    answers it with three passes over arrays of shape indices:

    - two collinear overlap scans — horizontal shapes grouped by y, vertical
      shapes grouped by x, points riding along in both.  Each sorts its
      indices, then scans every group with an open buffer compacted in
      place, which only holds shapes still overlapping the scan front.  A
      point pair both scans find is reported by the first only;
    - one orthogonal-crossing sweep over x.  Horizontal shapes are ranked by
      y and marked active in a bitset while the sweep is inside their x
      extent; each vertical shape binary-searches its y band and reads the
      active ranks in it a 32-bit word at a time.

    For n shapes, k contact pairs, and b_v horizontal shapes in the y band
    of vertical shape v, the cost is O(n log n + k + Σ_v b_v / 32): sorting,
    pairs reported, and bitset words read.  Scratch is about seven machine
    words per shape (index arrays, merge-sort buffers, the open buffer, the
    bitset), and no pair table: each pair is handed to the caller once. *)

(** One shape: a closed axis-aligned box that is degenerate in at least one
    axis — a horizontal segment, a vertical segment, or a point.  [sid] is
    the caller's identifier, reported back in contact pairs. *)
type seg = private {
  sid : int;
  sx : Interval.t;
  sy : Interval.t;
}

(** [segment ~id ~ax ~ay ~bx ~by] is the shape spanning the two endpoints
    (in either order).  Endpoints equal in both axes yield a point. *)
val segment : id:int -> ax:float -> ay:float -> bx:float -> by:float -> seg

(** [box ~id sx sy] is the shape with extents [sx] and [sy], which it
    shares rather than copies. *)
val box : id:int -> Interval.t -> Interval.t -> seg

(** [contacts ?eps segs f] calls [f a b] exactly once for every unordered
    pair of shapes whose closed extents come within [eps] of touching in
    both axes (for degenerate axis-aligned shapes, bounding-box contact is
    geometric contact); [a] and [b] are their [sid]s, which should be
    distinct.  Pairs arrive in no specified order.  [eps] defaults to
    [1e-6].

    Collinear shapes are grouped from an anchor: a group starts at the
    smallest fixed coordinate (y of a horizontal shape, x of a vertical
    one, either for a point) and takes every shape within [eps] of it.
    When the fixed coordinates inside a group are equal — as on snapped
    layout coordinates — the pairs are exactly the ones described above.
    Fixed coordinates that differ by less than [eps] without being equal
    join one group scanned in (coordinate, start) order, which can add or
    miss a pair near such a group.

    @raise Invalid_argument on a shape extended (beyond [eps]) in both
    axes — layout shapes are reserved-direction segments, points, or vias. *)
val contacts : ?eps:float -> seg array -> (int -> int -> unit) -> unit
