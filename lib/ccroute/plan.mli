(** Bottom-plate routing plan: channel selection and track assignment —
    Steps 1 and 2 of Algorithm 1.

    Channels are the vertical routing corridors between array columns.
    Channel [ch] (0 <= ch <= cols) lies immediately to the {e left} of
    column [ch]; channel [cols] is the right edge.  A channel is adjacent
    to columns [ch - 1] and [ch].

    Channel selection maximises track sharing: capacitor groups of the
    same capacitor whose column spans intersect are steered to one shared
    channel, connecting through the closest cell pair, with ties broken
    toward the bottom of the array (where the drivers sit).  Track
    assignment then gives each capacitor one track per channel it uses. *)

open Ccgrid

type route = {
  group : Group.t;
  channel : int;       (** channel carrying this group's trunk connection *)
  track : int;         (** track index within the channel, 0 = leftmost *)
  attach : Cell.t;     (** cell connected to the trunk by a branch stub *)
}

type t = {
  routes : route list;              (** one entry per group *)
  tracks_per_channel : int array;   (** length [cols + 1] *)
  track_caps : int array array;     (** per channel, the capacitor id on
                                        each track, in track order *)
}

(** [make placement groups] runs Steps 1–2.  Every group is guaranteed a
    route (Sec. IV-B3: "each capacitor group is guaranteed to complete
    routing").  It is [of_channels placement] applied to Step 1's choices
    for each capacitor in id order.

    Cost of Step 1 for a capacitor with [n] groups: a counting-sorted
    per-column index of the groups spanning each column (O(cols + Σ
    spans)), then for each group a walk over the index entries of its own
    columns into a stamped partner buffer, a sort of the partners when the
    group spans several columns, and {!Group.closest_cells} with each
    partner on the two groups' id arrays — no test of every pair of
    groups.  Then {!of_channels}. *)
val make : Placement.t -> Group.t list -> t

(** [of_channels placement choices] runs the stub-planarity repair and
    Step 2 (track assignment) on Step 1's choices: one
    [(group, channel, attach cell)] per group, capacitors in ascending id
    order.  Exposed so tests can feed it an independent channel
    selection.  Raises [Invalid_argument] on a channel outside
    [0 .. cols] or a negative capacitor id.

    Cost: a stable counting sort of the connections by channel, then per
    channel with [k] connections and [n] capacitors O(k + n²): the
    capacitors indexed by slot, the precedence table from the
    connections linked per row, and the track pick over the table, which
    is also the cycle check.  A cyclic channel repeats that for each
    re-attachment tried; each move tried also re-buckets the
    connections. *)
val of_channels : Placement.t -> (Group.t * int * Cell.t) list -> t

(** [routes_of_cap t k] filters routes of capacitor [k].  O(|routes|)
    per call; the router buckets routes by capacitor once instead. *)
val routes_of_cap : t -> int -> route list

(** [total_tracks t] over all channels. *)
val total_tracks : t -> int
