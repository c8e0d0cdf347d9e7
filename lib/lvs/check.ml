module LR = Verify.Lvs_rules

type stats = {
  shapes : int;
  contacts : int;
  components : int;
}

type result = {
  diagnostics : Diag.t list;
  stats : stats;
}

let cap_loc k = Printf.sprintf "C_%d" k

(* Labels in report order: capacitors by id, then the top plate. *)
let label_key l = if l = Shape.top then max_int else l

(* no label yet *)
let unlabelled = min_int

let classify (shapes : Shape.t) (ex : Extracted.t)
    (layout : Ccroute.Layout.t) =
  let n = Shape.count shapes in
  let nc = ex.Extracted.n_components in
  let ncaps = Array.length layout.Ccroute.Layout.nets in
  let comp_of = ex.Extracted.comp_of in
  let kind = shapes.Shape.kind and label = shapes.Shape.label in
  let pads = shapes.Shape.pads in
  let n_cells = Array.length pads in
  (* per-component tallies: the first label seen and whether another
     followed it *)
  let comp_shapes = Array.make nc 0 in
  let comp_label = Array.make nc unlabelled in
  let comp_mixed = Array.make nc false in
  let comp_pads = Array.make nc 0 in
  let comp_top_pads = Array.make nc 0 in
  let comp_driver = Array.make nc false in
  (* per-capacitor tallies: pads, the driver's component, and the first
     component holding a pad or the driver — a second one splits the
     net *)
  let cap_pads = Array.make ncaps 0 in
  let cap_driver = Array.make ncaps (-1) in
  let cap_anchor = Array.make ncaps (-1) in
  let cap_split = Array.make ncaps false in
  let anchor k c =
    if cap_anchor.(k) < 0 then cap_anchor.(k) <- c
    else if cap_anchor.(k) <> c then cap_split.(k) <- true
  in
  for s = 0 to n - 1 do
    let c = comp_of.(s) and l = label.(s) in
    comp_shapes.(c) <- comp_shapes.(c) + 1;
    if comp_label.(c) = unlabelled then comp_label.(c) <- l
    else if comp_label.(c) <> l then comp_mixed.(c) <- true;
    match kind.(s) with
    | Shape.Pad ->
      comp_pads.(c) <- comp_pads.(c) + 1;
      cap_pads.(l) <- cap_pads.(l) + 1;
      anchor l c
    | Shape.Top_pad -> comp_top_pads.(c) <- comp_top_pads.(c) + 1
    | Shape.Branch | Shape.Stub | Shape.Trunk | Shape.Bridge | Shape.Top_wire
    | Shape.Via -> ()
  done;
  Array.iter
    (fun s ->
       let c = comp_of.(s) and k = label.(s) in
       if cap_driver.(k) < 0 then cap_driver.(k) <- c;
       comp_driver.(c) <- true;
       anchor k c)
    shapes.Shape.drivers;
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (* shorts: one extracted component claiming >= 2 nets *)
  let shorted = Array.make ncaps false in
  if Array.exists Fun.id comp_mixed then begin
    let labels = Array.make nc [] in
    for s = 0 to n - 1 do
      let c = comp_of.(s) in
      if comp_mixed.(c) then labels.(c) <- label_key label.(s) :: labels.(c)
    done;
    for c = 0 to nc - 1 do
      if comp_mixed.(c) then begin
        let keys = List.sort_uniq Int.compare labels.(c) in
        let names =
          List.map
            (fun key ->
               if key = max_int then Shape.label_name Shape.top
               else begin
                 shorted.(key) <- true;
                 Shape.label_name key
               end)
            keys
        in
        emit
          (Diag.makef ~loc:(List.hd names) LR.r_short
             "extracted component of %d shapes joins nets %s" comp_shapes.(c)
             (String.concat ", " names))
      end
    done
  end;
  (* opens: a net missing its driver terminal, or anchored shapes spread
     over >= 2 components.  Unanchored stray metal is the dangling
     warning below, not an open — it cannot carry the net's charge. *)
  let anchored = Array.make ncaps [] in
  if Array.exists Fun.id cap_split then begin
    Array.iter
      (fun s ->
         if s >= 0 && cap_split.(label.(s)) then
           anchored.(label.(s)) <- comp_of.(s) :: anchored.(label.(s)))
      pads;
    Array.iter
      (fun s ->
         let k = label.(s) in
         if cap_split.(k) then anchored.(k) <- comp_of.(s) :: anchored.(k))
      shapes.Shape.drivers
  end;
  let fractured = Array.make ncaps false in
  for k = 0 to ncaps - 1 do
    if cap_driver.(k) < 0 then begin
      fractured.(k) <- true;
      emit
        (Diag.makef ~loc:(cap_loc k) LR.r_open
           "no driver terminal: no via of the net reaches the driver row \
            (y = 0)")
    end;
    if cap_split.(k) then begin
      fractured.(k) <- true;
      emit
        (Diag.makef ~loc:(cap_loc k) LR.r_open
           "net fractured into %d disconnected pieces (%d cell plates)"
           (List.length (List.sort_uniq Int.compare anchored.(k)))
           cap_pads.(k))
    end
  done;
  (* floating cells: pads not in their net's driver component.  Only a
     split net can have them; the no-driver open already condemns every
     cell of a net without a driver.  Walking the cells in order, the
     first four strays are the four lowest cells. *)
  let floating = Array.make ncaps false in
  let stray = Array.make ncaps 0 and stray_cells = Array.make ncaps [] in
  if Array.exists Fun.id cap_split then
    Array.iteri
      (fun c s ->
         if s >= 0 then begin
           let k = label.(s) in
           if
             cap_split.(k) && cap_driver.(k) >= 0
             && comp_of.(s) <> cap_driver.(k)
           then begin
             stray.(k) <- stray.(k) + 1;
             if stray.(k) <= 4 then stray_cells.(k) <- c :: stray_cells.(k)
           end
         end)
      pads;
  for k = 0 to ncaps - 1 do
    if stray.(k) > 0 then begin
      floating.(k) <- true;
      emit
        (Diag.makef ~loc:(cap_loc k) LR.r_floating_cell
           "%d of %d unit cells unreachable from the driver: %s%s" stray.(k)
           cap_pads.(k)
           (String.concat ", "
              (List.rev_map (Shape.cell_name shapes) stray_cells.(k)))
           (if stray.(k) > 4 then ", ..." else ""))
    end
  done;
  (* dangling: components anchored to nothing — dead metal *)
  for c = 0 to nc - 1 do
    if comp_pads.(c) = 0 && comp_top_pads.(c) = 0 && not comp_driver.(c)
    then begin
      let loc =
        if comp_mixed.(c) then None
        else Some (Shape.label_name comp_label.(c))
      in
      emit
        (Diag.makef ?loc LR.r_dangling
           "dead metal: component of %d shapes touches no cell plate and no \
            driver terminal"
           comp_shapes.(c))
    end
  done;
  (* top plate: every top pad must share one component *)
  let top_comps = ref 0 in
  for c = 0 to nc - 1 do
    if comp_top_pads.(c) > 0 then incr top_comps
  done;
  if !top_comps >= 2 then
    emit
      (Diag.makef ~loc:"TOP" LR.r_top_open
         "top plate fractured into %d components" !top_comps);
  (* Netbuild cross-check, only for geometrically clean nets: the cells
     the drawn geometry connects to the driver must be exactly the cells
     the RC model (and hence Elmore/f3dB) has, and the model must be one
     tree.  Both are facts of the model's topology, so no RC tree is
     built here. *)
  (* per cell: the capacitor of its pad (-1 for a dummy), and the last
     capacitor whose tree models it *)
  let pad_cap c = if pads.(c) < 0 then -1 else label.(pads.(c)) in
  let in_tree = Array.make n_cells (-1) in
  let topology = Extract.Netbuild.topology layout in
  let p_of_cap = layout.Ccroute.Layout.p_of_cap in
  for k = 0 to ncaps - 1 do
    let clean =
      (not (shorted.(k) || fractured.(k) || floating.(k)))
      && cap_driver.(k) >= 0
    in
    (* a net without a parallel-wire count of at least 1 has no RC tree
       to compare: the plan is at fault, not Netbuild *)
    if clean && (k >= Array.length p_of_cap || p_of_cap.(k) < 1) then
      emit
        (Diag.makef ~loc:(cap_loc k) Verify.Route_rules.r_parallel_positive
           "%s; the RC tree cross-check is skipped"
           (if k >= Array.length p_of_cap then "no parallel-wire count"
            else Printf.sprintf "parallel-wire count %d is below 1" p_of_cap.(k)))
    else if clean then begin
      match topology ~cap:k with
      | exception e ->
        emit
          (Diag.makef ~loc:(cap_loc k) LR.r_netbuild_mismatch
             "Netbuild failed on a geometrically clean net: %s"
             (Printexc.to_string e))
      | tp ->
        let tree_cells = tp.Extract.Netbuild.modelled in
        let tree_only = ref 0 in
        Array.iter
          (fun id ->
             in_tree.(id) <- k;
             if pad_cap id <> k then incr tree_only)
          tree_cells;
        let n_tree = Array.length tree_cells in
        (* the tree's cells are distinct, so with no tree-only cell and
           as many cells as pads the two sets are equal *)
        if !tree_only > 0 || n_tree <> cap_pads.(k) then begin
          let drawn_only = ref 0 and first_drawn = ref (-1)
          and first_tree = ref (-1) in
          for id = 0 to n_cells - 1 do
            let l = pad_cap id in
            if l = k && in_tree.(id) <> k then begin
              incr drawn_only;
              if !first_drawn < 0 then first_drawn := id
            end
            else if in_tree.(id) = k && l <> k && !first_tree < 0 then
              first_tree := id
          done;
          let first what id =
            if id < 0 then ""
            else Printf.sprintf "; %s %s" what (Shape.cell_name shapes id)
          in
          emit
            (Diag.makef ~loc:(cap_loc k) LR.r_netbuild_mismatch
               "extracted driver component reaches %d cells but the RC tree \
                models %d (%d drawn-only, %d tree-only%s%s)"
               cap_pads.(k) n_tree !drawn_only !tree_only
               (first "drawn-only" !first_drawn)
               (first "tree-only" !first_tree))
        end;
        (* the drawn net is one component, so a model in pieces has lost
           an edge the geometry has *)
        let pieces = tp.Extract.Netbuild.pieces in
        if pieces > 1 then
          emit
            (Diag.makef ~loc:(cap_loc k) LR.r_netbuild_mismatch
               "the RC model falls into %d disconnected pieces, so no tree \
                joins its cells to the driver"
               pieces)
    end
  done;
  Diag.sort !diags

let run layout =
  (* flatten and the Netbuild cross-check read the lattice by placement
     column and row: a lattice of the wrong length is reported, not
     extracted *)
  let flat =
    match Verify.Route_rules.check_lattice layout with
    | [] ->
      Telemetry.Span.with_ ~name:"lvs.flatten" (fun () ->
          Shape.of_layout layout)
    | wrong -> Error wrong
  in
  let diagnostics, stats, sort_keys =
    match flat with
    | Error rejected ->
      (rejected, { shapes = 0; contacts = 0; components = 0 }, 0)
    | Ok shapes ->
      let ex =
        Telemetry.Span.with_ ~name:"lvs.extract" (fun () ->
            Extracted.extract shapes)
      in
      let diagnostics =
        Telemetry.Span.with_ ~name:"lvs.compare" (fun () ->
            classify shapes ex layout)
      in
      ( diagnostics,
        { shapes = Shape.count shapes;
          contacts = ex.Extracted.n_contacts;
          components = ex.Extracted.n_components },
        ex.Extracted.sort_keys )
  in
  if Telemetry.Metrics.enabled () then begin
    Telemetry.Metrics.set "lvs/shapes" (float_of_int stats.shapes);
    Telemetry.Metrics.set "lvs/contacts" (float_of_int stats.contacts);
    Telemetry.Metrics.set "lvs/sort_keys" (float_of_int sort_keys);
    Telemetry.Metrics.set "lvs/components" (float_of_int stats.components);
    List.iter
      (fun (d : Diag.t) ->
         Telemetry.Metrics.incr ~label:d.Diag.rule.Diag.id
           "lvs/defects_total")
      diagnostics
  end;
  { diagnostics; stats }

let check layout = (run layout).diagnostics
