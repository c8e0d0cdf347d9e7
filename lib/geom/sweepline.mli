(** Axis-aligned contact detection on an integer grid by plane sweep.

    The LVS extractor reduces same-layer connectivity among routed metal to
    one question: which pairs of axis-aligned shapes (wire segments, via
    landings as points) touch?  Coordinates are integers (grid units), so
    contact is exact: two closed boxes touch when their extents intersect
    in both axes, with no tolerance.  A naive all-pairs test is O(n²); this
    module answers it with three passes over arrays of box indices.

    The boxes split into horizontals, verticals and points.  The larger of
    the first two is the major class and the other the minor class; when
    the verticals are the larger, the same passes run on the transposed
    boxes, so what follows speaks of horizontal major boxes.

    - the major collinear scan: the horizontal boxes and the points
      grouped by y.  It sorts their indices by (y, start), then scans each
      group with an open buffer compacted in place, which only holds boxes
      still overlapping the scan front.  It reports every major-major,
      major-point and point-point pair;
    - the minor collinear scan: the vertical boxes alone grouped by x, the
      same way.  It reports every minor-minor pair;
    - one orthogonal-crossing sweep over y.  The vertical boxes are ranked
      by x in the minor scan's order and marked active in a bitset while
      the sweep is inside their y extent; each horizontal box and point,
      in the major scan's order, binary-searches its x band and reads the
      active ranks in it a 32-bit word at a time.  It reports every
      minor-major and minor-point pair.

    An empty minor class skips its scan and the crossing.  So only the
    minor class is sorted for the crossing, and each point is sorted in
    one scan.

    Every sort is a stable LSD radix sort of an index array by one integer
    key, in as many passes as the coordinate range needs at up to 11 bits
    a pass, with the digit balanced across them; a two-key order is two
    such sorts, minor key first, so no key is ever packed and no range can
    overflow.  With M major boxes, m minor boxes and p points, the sorts
    order 2(M + p) + 4m keys.  For n boxes, k contact pairs, and b_q
    minor boxes in the x band of query q (a major box or a point), the
    cost is O(n·d + k + Σ_q (log m + b_q / 32)), d being the digit passes.
    Scratch is a few machine words per box (index and key arrays, the open
    buffer, the bitset), held in a {!scratch} the caller passes so that
    several calls share it, and no pair table: each pair is handed to the
    caller once. *)

(** Closed boxes on the integer grid, one per index [i]: box [i] spans
    [x0.(i) .. x1.(i)] × [y0.(i) .. y1.(i)].  The four arrays have one
    length, and [x0.(i) <= x1.(i)], [y0.(i) <= y1.(i)]. *)
type boxes = {
  x0 : int array;
  y0 : int array;
  x1 : int array;
  y1 : int array;
}

(** The working arrays of {!contacts}: the radix sorts' key, index and
    bucket arrays and their key tally, the collinear passes' index arrays
    and open buffer, and the crossing pass's rank arrays and bitset.  A
    call replaces any array too small for its box set and never shrinks
    one, so a scratch swept over several box sets ends at the size of the
    largest.  Use one scratch in one domain at a time. *)
type scratch

(** [scratch ()] is an empty scratch; the first {!contacts} call sizes it. *)
val scratch : unit -> scratch

(** [sort_keys sc] counts the keys the radix sorts of every {!contacts}
    call on [sc] have ordered, one per index per sort: a deterministic
    measure of the sweep's work. *)
val sort_keys : scratch -> int

(** [contacts sc b f] calls [f i j] exactly once for every unordered pair of
    distinct indices whose closed boxes intersect in both axes (for boxes
    degenerate in at least one axis, bounding-box contact is geometric
    contact).  Pairs arrive in no specified order.

    @raise Invalid_argument on a box extended in both axes — layout shapes
    are reserved-direction segments, points, or vias. *)
val contacts : scratch -> boxes -> (int -> int -> unit) -> unit
