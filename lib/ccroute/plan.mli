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
    assignment then gives each capacitor one track per channel it uses.

    Every group has one connection to its capacitor's trunk in one
    channel.  The plan holds it in int arrays indexed by group id, with
    no record per group. *)

open Ccgrid

type t = {
  order : int array;                (** the group ids in Step 1's
                                        connection order *)
  channel : int array;              (** per group: the channel carrying
                                        its trunk connection *)
  track : int array;                (** per group: its track within that
                                        channel, 0 = leftmost *)
  attach : int array;               (** per group: the cell id connected
                                        to the trunk by a branch stub *)
  tracks_per_channel : int array;   (** length [cols + 1] *)
  track_caps : int array array;     (** per channel, the capacitor id on
                                        each track, in track order *)
}

(** [make placement groups] runs Steps 1–2.  Every group is guaranteed a
    route (Sec. IV-B3: "each capacitor group is guaranteed to complete
    routing").  It is [of_channels placement groups] applied to Step 1's
    choices for each capacitor in id order.

    Cost of Step 1 for a capacitor with [n] groups: a counting-sorted
    per-column index of the groups spanning each column (O(cols + Σ
    spans)), then for each group a walk over the index entries of its own
    columns into a stamped partner buffer, a sort of the partners when the
    group spans several columns, and {!Group.closest_cells} with each
    partner — no test of every pair of groups.  The buffers are
    allocated once for all capacitors.  Then {!of_channels}. *)
val make : Placement.t -> Group.t -> t

(** [of_channels placement groups choices] runs the stub-planarity
    repair and Step 2 (track assignment) on Step 1's choices: one
    [(group id, channel, attach cell id)] per group, capacitors in
    ascending id order; the list order is the connection order.
    Exposed so tests can feed it an independent channel selection.
    Raises [Invalid_argument] on a channel outside [0 .. cols] or a
    group without exactly one connection.

    Cost: a stable counting sort of the connections by channel, then per
    channel with [k] connections and [n] capacitors O(k + n²): the
    capacitors indexed by slot, the precedence table from the
    connections linked per row, and the track pick over the table, which
    is also the cycle check.  A cyclic channel repeats that for each
    re-attachment tried; each move tried also re-buckets the
    connections. *)
val of_channels : Placement.t -> Group.t -> (int * int * int) list -> t

(** [total_tracks t] over all channels. *)
val total_tracks : t -> int
