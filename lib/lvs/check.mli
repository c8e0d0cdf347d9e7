(** Layout-vs-schematic certification.

    {!run} flattens a routed layout onto the integer grid
    ({!Shape.of_layout}), extracts its connectivity ({!Extracted.extract})
    and compares the result against the intended netlist — one net per
    capacitor spanning exactly its placed cells plus one driver terminal,
    and one shared top plate — classifying every disagreement under the
    [lvs/*] rule family of {!Verify.Lvs_rules}:

    - [lvs/off-grid]: a drawn coordinate is off the 0.5 nm grid; the
      layout is not extracted;
    - [lvs/unknown-net]: a shape names a capacitor the layout has no net
      for (or a via names the top plate); the layout is not extracted;
    - [lvs/diagonal]: an on-grid wire runs along both axes; the layout
      is not extracted;
    - [lvs/short]: one component claims two nets;
    - [lvs/open]: a net is missing its driver terminal or its anchored
      shapes (cell plates, driver) span several components;
    - [lvs/floating-cell]: a cell plate is not in its driver's component;
    - [lvs/dangling] (warning): metal anchored to no plate or terminal;
    - [lvs/top-open]: the shared top plate spans several components;
    - [lvs/netbuild-mismatch]: on a geometrically clean net, the cells the
      drawn geometry reaches differ from the cells of the
      {!Extract.Netbuild} RC model, or that model falls into several
      pieces — the Elmore/f3dB numbers would describe a different circuit
      than the one drawn, or none at all.

    Two {!Verify.Route_rules} rules are reported here as well:
    [route/lattice] when the cell lattice does not hold one centre per
    placement column and row (the layout is not extracted), and
    [route/parallel-positive] when a clean net has no parallel-wire count
    of at least 1 (its cross-check is skipped).

    The comparison keeps its tallies in arrays indexed by component,
    capacitor and cell; lists appear only on the paths that report a
    defect.  The cross-check reads each clean net's
    {!Extract.Netbuild.topology} — the model's cells and piece count —
    and builds no RC tree: the flow's extraction stage builds those.

    Diagnostics feed the ordinary {!Verify.Engine} gate ([gate],
    [assert_clean]), the [ccgen lvs] CLI and the flow's [lvs] stage. *)

type stats = {
  shapes : int;       (** shapes flattened and swept *)
  contacts : int;     (** same-layer contact pairs *)
  components : int;   (** extracted electrical components *)
}

type result = {
  diagnostics : Verify.Diagnostic.t list;  (** sorted, possibly empty *)
  stats : stats;      (** all zero when the layout is not extracted *)
}

(** [classify shapes ex layout] is the comparison pass alone (no
    telemetry): the sorted diagnostics. *)
val classify :
  Shape.t -> Extracted.t -> Ccroute.Layout.t -> Verify.Diagnostic.t list

(** [run layout] is the full instrumented pass (spans [lvs.flatten],
    [lvs.extract], [lvs.compare]; metrics [lvs/shapes], [lvs/contacts],
    [lvs/sort_keys], [lvs/components], [lvs/defects_total]). *)
val run : Ccroute.Layout.t -> result

(** [check layout] is [(run layout).diagnostics]. *)
val check : Ccroute.Layout.t -> Verify.Diagnostic.t list
