(** Whole-layout connectivity extraction.

    One {!Geom.Sweepline} pass per metal layer, all three in one sweep
    scratch, reports every same-layer contact pair once, and each pair
    goes straight into a union-find as it arrives; the union-find closes
    connectivity across layers through vias (a via's single shape id has
    a box on both M1 and M3, so its same-layer contacts merge the two
    layers' components).  A layer of n
    shapes and k contacts costs the sweep's O(n·d + k + B/32), d being its
    radix digit passes and B the horizontal shapes summed over the y bands
    of its vertical ones, plus a near-constant amortised union-find step
    per contact.  The result partitions the flattened shape set into
    electrical components — the extracted nets. *)

type t = {
  comp_of : int array;     (** shape id -> dense component index *)
  n_components : int;
  n_contacts : int;        (** same-layer contact pairs found *)
}

(** [extract shapes] runs the per-layer sweeps and the union-find.
    Component indices are dense, numbered in order of each component's
    lowest shape id. *)
val extract : Shape.t -> t
