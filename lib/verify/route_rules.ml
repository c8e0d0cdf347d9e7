open Ccgrid
open Ccroute

let route rule_id doc =
  Diag.rule ~id:("route/" ^ rule_id) ~severity:Diag.Error ~doc

let r_wire_in_outline =
  route "wire-in-outline"
    "Every wire (bottom and top plate) must lie inside the routed block's \
     outline."

let r_via_in_outline =
  route "via-in-outline" "Every logical via must lie inside the outline."

let r_trunk_in_channel =
  route "trunk-in-channel"
    "Every trunk must sit inside the x extent of the channel its track \
     belongs to."

let r_track_separation =
  route "track-separation"
    "Two trunks sharing a channel must be at least half the sum of their \
     bundle widths apart."

let r_stub_separation =
  route "stub-separation"
    "Two stubs of different nets entering one channel in the same row must \
     neither overlap nor touch."

let r_net_routed = route "net-routed" "Every capacitor must have a trunk."

let r_net_coverage =
  route "net-coverage"
    "The connected groups of each capacitor's net must cover exactly its \
     placed cells."

let r_parallel_consistency =
  route "parallel-consistency"
    "Bundle widths recorded on wires and vias must match the declared \
     parallel-wire plan."

let r_reserved_direction =
  route "reserved-direction"
    "Wires must respect their layer's reserved direction (trunks vertical, \
     bridges and stubs horizontal)."

let r_extent =
  route "extent" "The routed block must have strictly positive width and \
                  height."

let r_top_plate =
  route "top-plate"
    "A multi-cell array must carry a non-empty top-plate net of positive \
     length."

let r_parallel_positive =
  route "parallel-positive"
    "Every capacitor's parallel-wire count must be at least 1."

let r_lattice =
  route "lattice"
    "The cell lattice must hold one column centre per placement column and \
     one row centre per placement row."

let rules =
  [ r_wire_in_outline; r_via_in_outline; r_trunk_in_channel;
    r_track_separation; r_stub_separation; r_net_routed; r_net_coverage;
    r_parallel_consistency; r_reserved_direction; r_extent; r_top_plate;
    r_parallel_positive; r_lattice ]

(* [emit out ?loc rule fmt ...] formats one diagnostic onto [out].  It is
   top-level so that each call instantiates its own format type: an
   [emit] passed to the checks as an argument would be monomorphic. *)
let emit out ?loc rule fmt =
  Printf.ksprintf (fun d -> out := Diag.make ?loc rule d :: !out) fmt

(* --- the post-route invariants: no loc, so Diag.sort orders them
   by (rule id, detail) --- *)

let check_outline (layout : Layout.t) out =
  let eps = 1e-6 in
  let x_hi = layout.Layout.width +. eps and y_hi = layout.Layout.height +. eps in
  let inside x y = x >= -.eps && x <= x_hi && y >= -.eps && y <= y_hi in
  (* [inside] written out on the table's floats, which so stay unboxed *)
  let wires (ws : Layout.Wires.t) =
    let xy = ws.Layout.Wires.xy in
    for i = 0 to Layout.Wires.length ws - 1 do
      let j = 4 * i in
      let ax = xy.(j) and ay = xy.(j + 1) and bx = xy.(j + 2) and by = xy.(j + 3) in
      if not
          (ax >= -.eps && ax <= x_hi && ay >= -.eps && ay <= y_hi
           && bx >= -.eps && bx <= x_hi && by >= -.eps && by <= y_hi)
      then
        emit out r_wire_in_outline
          "net C_%d wire (%.2f,%.2f)-(%.2f,%.2f) escapes %gx%g"
          (Layout.Wires.cap ws i) xy.(j) xy.(j + 1) xy.(j + 2) xy.(j + 3)
          layout.Layout.width layout.Layout.height
    done
  in
  wires layout.Layout.wires;
  wires layout.Layout.top_wires;
  List.iter
    (fun (v : Layout.via) ->
       if not (inside v.Layout.v_x v.Layout.v_y) then
         emit out r_via_in_outline "net C_%d via (%.2f,%.2f) escapes"
           v.Layout.v_cap v.Layout.v_x v.Layout.v_y)
    layout.Layout.vias

(* each trunk must sit inside its channel's x extent *)
let check_trunks_in_channels (layout : Layout.t) out =
  let eps = 1e-6 in
  let channel_bounds =
    (* recompute channel left edges the way Layout laid them out *)
    let cols = layout.Layout.placement.Placement.cols in
    let pitch_x = Tech.Process.cell_pitch_x layout.Layout.tech in
    let bounds = Array.make (cols + 1) (0., 0.) in
    let cursor = ref 0. in
    for ch = 0 to cols do
      bounds.(ch) <- (!cursor, !cursor +. layout.Layout.channel_width.(ch));
      cursor := !cursor +. layout.Layout.channel_width.(ch);
      if ch < cols then cursor := !cursor +. pitch_x
    done;
    bounds
  in
  Array.iter
    (fun (net : Layout.capnet) ->
       List.iter
         (fun (tk : Layout.trunk) ->
            let lo, hi = channel_bounds.(tk.Layout.tk_channel) in
            if tk.Layout.tk_x < lo -. eps || tk.Layout.tk_x > hi +. eps then
              emit out r_trunk_in_channel
                "C_%d trunk x=%.3f outside channel %d [%.3f, %.3f]"
                tk.Layout.tk_cap tk.Layout.tk_x tk.Layout.tk_channel lo hi)
         net.Layout.cn_trunks)
    layout.Layout.nets

(* [unplanned out what k n] reports capacitor id [k] of a [what] that
   names no capacitor of an [n]-entry parallel-wire plan *)
let unplanned out what k n =
  emit out r_parallel_consistency
    "C_%d %s names no capacitor of the plan (C_0..C_%d)" k what (n - 1)

(* two trunks in one channel must not collide: centre distance at least
   half the sum of their bundle widths.  A trunk whose capacitor has no
   plan entry is reported here; it and a trunk whose count is below 1
   (route/parallel-positive) have no width, so their pairs are skipped. *)
let check_track_separation (layout : Layout.t) out =
  let p_of_cap = layout.Layout.p_of_cap in
  let n = Array.length p_of_cap in
  let trunks_by_channel = Hashtbl.create 16 in
  Array.iter
    (fun (net : Layout.capnet) ->
       List.iter
         (fun (tk : Layout.trunk) ->
            let k = tk.Layout.tk_cap in
            if k < 0 || k >= n then unplanned out "trunk" k n;
            let prev =
              Option.value ~default:[]
                (Hashtbl.find_opt trunks_by_channel tk.Layout.tk_channel)
            in
            Hashtbl.replace trunks_by_channel tk.Layout.tk_channel (tk :: prev))
         net.Layout.cn_trunks)
    layout.Layout.nets;
  let width tk =
    let k = tk.Layout.tk_cap in
    if k < 0 || k >= n || p_of_cap.(k) < 1 then None
    else
      Some (Tech.Parallel.bundle_width layout.Layout.tech ~p:p_of_cap.(k))
  in
  Hashtbl.iter
    (fun channel trunks ->
       let sorted =
         List.sort (fun a b -> Float.compare a.Layout.tk_x b.Layout.tk_x) trunks
       in
       let rec walk = function
         | a :: (b :: _ as rest) ->
           (match (width a, width b) with
            | Some wa, Some wb ->
              let min_gap = (wa +. wb) /. 2. in
              let gap = b.Layout.tk_x -. a.Layout.tk_x in
              if gap < min_gap -. 1e-9 then
                emit out r_track_separation
                  "channel %d: trunks of C_%d and C_%d %.3f um apart, need %.3f"
                  channel a.Layout.tk_cap b.Layout.tk_cap gap min_gap
            | _ -> ());
           walk rest
         | [ _ ] | [] -> ()
       in
       walk sorted)
    trunks_by_channel

(* Each stub runs along its attach cell's row from the cell's column x to
   its trunk's x, so two stubs of different nets that enter one channel
   from opposite sides in the same row short when each reaches past the
   other's trunk.  The rule runs in every verify gate, so it makes one
   pass with no sort: the trunks are bucketed by channel, and within a
   channel each stub is chained onto its row ([head], [next]) and compared
   with the stubs already there.  The extents live in flat arrays sized
   for the busiest channel.  A stub whose group, cell, channel or column
   centre lies outside the plan or the lattice is left to the other
   rules. *)
let check_stub_separation (layout : Layout.t) out =
  let rows = layout.Layout.placement.Placement.rows
  and cols = layout.Layout.placement.Placement.cols
  and attach = layout.Layout.plan.Plan.attach
  and col_x = layout.Layout.col_x in
  let by_channel = Array.make (cols + 1) [] in
  Array.fold_right
    (fun (net : Layout.capnet) () ->
       List.fold_right
         (fun (tk : Layout.trunk) () ->
            let ch = tk.Layout.tk_channel in
            if ch >= 0 && ch <= cols then
              by_channel.(ch) <- tk :: by_channel.(ch))
         net.Layout.cn_trunks ())
    layout.Layout.nets ();
  let stubs =
    List.fold_left
      (fun acc (tk : Layout.trunk) -> acc + Array.length tk.Layout.tk_attaches)
      0
  in
  let n = Array.fold_left (fun acc tks -> max acc (stubs tks)) 0 by_channel in
  let head = Array.make rows (-1) and seen = Array.make rows (-1)
  and next = Array.make n (-1) and cap = Array.make n 0
  and lo = Array.make n 0. and hi = Array.make n 0. in
  let eps = 1e-6 in
  let channel ch trunks =
    let m = ref 0 in
    List.iter
      (fun (tk : Layout.trunk) ->
         let groups = tk.Layout.tk_attaches in
         for a = 0 to Array.length groups - 1 do
           let g = groups.(a) in
           let cell =
             if g >= 0 && g < Array.length attach then attach.(g) else -1
           in
           if cell >= 0 && cell < rows * cols
              && cell mod cols < Array.length col_x
           then begin
             let j = !m and x = col_x.(cell mod cols) and row = cell / cols in
             if seen.(row) <> ch then begin
               seen.(row) <- ch;
               head.(row) <- -1
             end;
             cap.(j) <- tk.Layout.tk_cap;
             if x <= tk.Layout.tk_x then begin
               lo.(j) <- x;
               hi.(j) <- tk.Layout.tk_x
             end
             else begin
               lo.(j) <- tk.Layout.tk_x;
               hi.(j) <- x
             end;
             let i = ref head.(row) in
             while !i >= 0 do
               let i' = !i in
               if cap.(i') <> cap.(j) && lo.(i') <= hi.(j) +. eps
                  && lo.(j) <= hi.(i') +. eps
               then
                 emit out r_stub_separation
                   "channel %d row %d: stubs of C_%d (%.3f to %.3f um) and \
                    C_%d (%.3f to %.3f um) meet"
                   ch row cap.(i') lo.(i') hi.(i') cap.(j) lo.(j) hi.(j);
               i := next.(i')
             done;
             next.(j) <- head.(row);
             head.(row) <- j;
             m := j + 1
           end
         done)
      trunks
  in
  (* one trunk's stubs are all of one net *)
  Array.iteri
    (fun ch trunks -> match trunks with [] | [ _ ] -> () | _ -> channel ch trunks)
    by_channel

(* every capacitor must have a routed net whose groups cover its cells *)
let check_net_coverage (layout : Layout.t) out =
  let placement = layout.Layout.placement in
  Array.iter
    (fun (net : Layout.capnet) ->
       let cap = net.Layout.cn_cap in
       if net.Layout.cn_trunks = [] then
         emit out r_net_routed "C_%d has no trunk" cap;
       let groups = layout.Layout.groups in
       let covered =
         Array.fold_left
           (fun acc g ->
              (* an id outside the table covers nothing *)
              if g >= 0 && g < Group.count groups then acc + Group.size groups g
              else acc)
           0 net.Layout.cn_groups
       in
       if covered <> placement.Placement.counts.(cap) then
         emit out r_net_coverage "C_%d groups cover %d of %d cells" cap covered
           placement.Placement.counts.(cap))
    layout.Layout.nets

(* bundle widths recorded on wires and vias must match the plan, and
   each must name a capacitor of it (a wire's negative id is the top
   plate's) *)
let check_parallel_consistency (layout : Layout.t) out =
  let p_of_cap = layout.Layout.p_of_cap in
  let n = Array.length p_of_cap in
  let ws = layout.Layout.wires in
  for i = 0 to Layout.Wires.length ws - 1 do
    let k = Layout.Wires.cap ws i and p = Layout.Wires.p ws i in
    if k >= n then unplanned out "wire" k n
    else if k >= 0 && p <> p_of_cap.(k) then
      emit out r_parallel_consistency "C_%d wire has p=%d, plan says %d" k p
        p_of_cap.(k)
  done;
  List.iter
    (fun (v : Layout.via) ->
       let k = v.Layout.v_cap in
       if k < 0 || k >= n then unplanned out "via" k n
       else if v.Layout.v_p <> p_of_cap.(k) then
         emit out r_parallel_consistency "C_%d via has p=%d, plan says %d" k
           v.Layout.v_p p_of_cap.(k))
    layout.Layout.vias

(* trunk wires must be vertical on a vertical layer; bridges horizontal *)
let check_wire_directions (layout : Layout.t) out =
  let ws = layout.Layout.wires in
  let xy = ws.Layout.Wires.xy in
  let find_layer = Tech.Process.layers layout.Layout.tech in
  for i = 0 to Layout.Wires.length ws - 1 do
    let j = 4 * i and kind = Layout.Wires.kind ws i in
    let layer = find_layer (Layout.Wires.layer ws i) in
    let vertical = Float.abs (xy.(j) -. xy.(j + 2)) < 1e-9 in
    let horizontal = Float.abs (xy.(j + 1) -. xy.(j + 3)) < 1e-9 in
    let zero_length = vertical && horizontal in
    let matches =
      zero_length
      ||
      match kind with
      | Layout.Trunk ->
        vertical
        || Geom.Axis.equal layer.Tech.Layer.direction Geom.Axis.Horizontal
      | Layout.Bridge | Layout.Stub -> horizontal
      (* branch = abutting fingers, top plate = via-free jog allowed
         by the 3-layer MOM stack (Sec. IV-B1) *)
      | Layout.Branch | Layout.Top -> vertical || horizontal
    in
    if not matches then
      emit out r_reserved_direction "C_%d %s wire violates direction"
        (Layout.Wires.cap ws i)
        (match kind with
         | Layout.Branch -> "branch"
         | Layout.Stub -> "stub"
         | Layout.Trunk -> "trunk"
         | Layout.Bridge -> "bridge"
         | Layout.Top -> "top")
  done

(* --- layout-level extensions, in emission order --- *)

let check_lattice (layout : Layout.t) =
  let out = ref [] in
  let p = layout.Layout.placement in
  let length what centres n unit =
    if Array.length centres <> n then
      emit out r_lattice "%s holds %d centres for %d placement %s" what
        (Array.length centres) n unit
  in
  length "col_x" layout.Layout.col_x p.Placement.cols "columns";
  length "row_y" layout.Layout.row_y p.Placement.rows "rows";
  List.rev !out

let check_extensions (layout : Layout.t) =
  let out = ref [] in
  if not (layout.Layout.width > 0. && layout.Layout.height > 0.) then
    emit out r_extent "routed block is %g x %g um" layout.Layout.width
      layout.Layout.height;
  let cells =
    layout.Layout.placement.Placement.rows
    * layout.Layout.placement.Placement.cols
  in
  if cells >= 2 then begin
    if Layout.Wires.length layout.Layout.top_wires = 0 then
      emit out r_top_plate "top-plate net has no wires"
    else if not (layout.Layout.top_length > 0.) then
      emit out r_top_plate "top-plate wirelength is %g um"
        layout.Layout.top_length
  end;
  Array.iteri
    (fun k p ->
       if p < 1 then
         emit out r_parallel_positive ~loc:(Printf.sprintf "C_%d" k)
           "parallel-wire count %d is below 1" p)
    layout.Layout.p_of_cap;
  List.rev !out @ check_lattice layout

let check layout =
  let checked =
    Telemetry.Span.with_ ~name:"route.check" (fun () ->
        let out = ref [] in
        check_outline layout out;
        check_trunks_in_channels layout out;
        check_track_separation layout out;
        check_stub_separation layout out;
        check_net_coverage layout out;
        check_parallel_consistency layout out;
        check_wire_directions layout out;
        (* (rule id, detail) order, independent of hash-table and checker
           iteration order *)
        Diag.sort !out)
  in
  checked @ check_extensions layout
