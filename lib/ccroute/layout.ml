open Ccgrid

type wire_kind =
  | Branch
  | Stub
  | Trunk
  | Bridge
  | Top

type wire = {
  w_cap : int;
  w_kind : wire_kind;
  w_layer : Tech.Layer.name;
  w_ax : float;
  w_ay : float;
  w_bx : float;
  w_by : float;
  w_p : int;
}

type via = {
  v_cap : int;
  v_x : float;
  v_y : float;
  v_p : int;
}

type attach_point = {
  ap_group : int;
  ap_cell : Cell.t;
  ap_x : float;
  ap_y : float;
}

type trunk = {
  tk_cap : int;
  tk_channel : int;
  tk_track : int;
  tk_x : float;
  tk_y_low : float;
  tk_y_high : float;
  tk_attaches : attach_point list;
  tk_primary : bool;
}

type capnet = {
  cn_cap : int;
  cn_groups : Group.t list;
  cn_trunks : trunk list;
  cn_bridge_y : float option;
  cn_driver_x : float;
}

type t = {
  placement : Placement.t;
  tech : Tech.Process.t;
  groups : Group.t list;
  plan : Plan.t;
  p_of_cap : int array;
  col_x : float array;
  row_y : float array;
  channel_width : float array;
  bridge_height : float;
  width : float;
  height : float;
  nets : capnet array;
  wires : wire list;
  vias : via list;
  top_wires : wire list;
  top_length : float;
}

let msb_parallel ~bits ~p cap = if cap >= bits - 2 then p else 1

let wire_length w = Float.abs (w.w_bx -. w.w_ax) +. Float.abs (w.w_by -. w.w_ay)

let cell_center t (c : Cell.t) =
  Geom.Point.make ~x:t.col_x.(c.Cell.col) ~y:t.row_y.(c.Cell.row)

let net t k =
  if k < 0 || k >= Array.length t.nets then invalid_arg "Layout.net: bad cap id";
  t.nets.(k)

(* ------------------------------------------------------------------ *)

(* x positions of tracks within a channel, honouring per-capacitor bundle
   widths; returns (track -> x centre) and the channel width. *)
let track_positions tech p_of_cap ~channel_left track_caps =
  let n = Array.length track_caps in
  let xs = Array.make n 0. in
  let cursor = ref channel_left in
  for i = 0 to n - 1 do
    let span = Tech.Parallel.track_span tech ~p:p_of_cap.(track_caps.(i)) in
    xs.(i) <- !cursor +. (span /. 2.);
    cursor := !cursor +. span
  done;
  (xs, !cursor -. channel_left)

let route tech ?(p_of_cap = fun _ -> 1) (placement : Placement.t) =
  let bits = placement.Placement.bits in
  let rows = placement.Placement.rows and cols = placement.Placement.cols in
  let p_arr =
    Array.init (bits + 1)
      (fun k ->
         let p = p_of_cap k in
         if p < 1 then invalid_arg "Layout.route: p_of_cap must be >= 1";
         p)
  in
  let groups =
    Telemetry.Span.with_ ~name:"route.groups" (fun () ->
        Group.of_placement placement)
  in
  let plan =
    Telemetry.Span.with_ ~name:"route.plan" (fun () ->
        Plan.make placement groups)
  in
  (* --- channel geometry --- *)
  let channel_width = Array.make (cols + 1) 0. in
  let track_x = Array.make (cols + 1) [||] in
  let channel_left = Array.make (cols + 1) 0. in
  let col_x = Array.make cols 0. in
  let pitch_x = Tech.Process.cell_pitch_x tech in
  let pitch_y = Tech.Process.cell_pitch_y tech in
  (* the routes of each capacitor per channel, in reverse plan order, and
     the number of channels each capacitor uses *)
  let routes_at = Array.init (bits + 1) (fun _ -> Array.make (cols + 1) []) in
  let trunk_count = Array.make (bits + 1) 0 in
  List.iter
    (fun (r : Plan.route) ->
       let cap = r.Plan.group.Group.cap and ch = r.Plan.channel in
       let at = routes_at.(cap) in
       if at.(ch) = [] then trunk_count.(cap) <- trunk_count.(cap) + 1;
       at.(ch) <- r :: at.(ch))
    plan.Plan.routes;
  (* the groups of each capacitor, in group order *)
  let groups_of = Array.make (bits + 1) [] in
  let all_groups = Array.of_list groups in
  for i = Array.length all_groups - 1 downto 0 do
    let g = all_groups.(i) in
    groups_of.(g.Group.cap) <- g :: groups_of.(g.Group.cap)
  done;
  (* bridge region: one track per capacitor that needs a bridge *)
  let needs_bridge = Array.map (fun n -> n >= 2) trunk_count in
  let bridge_y = Array.make (bits + 1) 0. in
  let bridge_height =
    let cursor = ref 0. in
    for cap = 0 to bits do
      if needs_bridge.(cap) then begin
        let span = Tech.Parallel.track_span tech ~p:p_arr.(cap) in
        bridge_y.(cap) <- !cursor +. (span /. 2.);
        cursor := !cursor +. span
      end
    done;
    !cursor
  in
  let width =
    let cursor = ref 0. in
    for ch = 0 to cols do
      channel_left.(ch) <- !cursor;
      let xs, w =
        track_positions tech p_arr ~channel_left:!cursor plan.Plan.track_caps.(ch)
      in
      track_x.(ch) <- xs;
      channel_width.(ch) <- w;
      cursor := !cursor +. w;
      if ch < cols then begin
        col_x.(ch) <- !cursor +. (pitch_x /. 2.);
        cursor := !cursor +. pitch_x
      end
    done;
    !cursor
  in
  let row_y =
    Array.init rows
      (fun r -> bridge_height +. (float_of_int r *. pitch_y) +. (pitch_y /. 2.))
  in
  let height = bridge_height +. (float_of_int rows *. pitch_y) in
  (* --- per-capacitor nets --- *)
  let wires = ref [] and vias = ref [] in
  let emit_wire w = wires := w :: !wires in
  let emit_via v = vias := v :: !vias in
  let build_net cap =
    let p = p_arr.(cap) in
    let cap_groups = groups_of.(cap) in
    (* branch connections inside each group: abutting MOM fingers on the
       device layers — they carry plate resistance but are not routing
       metal, so they are rendered as Branch wires and excluded from the
       wirelength/capacitance/via metrics (Sec. V: "unit capacitors use
       nearest-neighbor connections using the same metal layer with no
       vias") *)
    List.iter
      (fun (g : Group.t) ->
         List.iter
           (fun ((a : Cell.t), (b : Cell.t)) ->
              emit_wire
                { w_cap = cap; w_kind = Branch; w_layer = Tech.Layer.M1;
                  w_ax = col_x.(a.Cell.col); w_ay = row_y.(a.Cell.row);
                  w_bx = col_x.(b.Cell.col); w_by = row_y.(b.Cell.row);
                  w_p = p })
           g.Group.tree_edges)
      cap_groups;
    (* trunks, one per channel used by this capacitor, in channel order;
       the first is the primary *)
    let has_bridge = needs_bridge.(cap) in
    let trunk ch ~track (rs : Plan.route list) ~primary =
      let x = track_x.(ch).(track) in
      let attaches =
        List.map
          (fun (r : Plan.route) ->
             { ap_group = r.Plan.group.Group.id;
               ap_cell = r.Plan.attach;
               ap_x = x;
               ap_y = row_y.(r.Plan.attach.Cell.row) })
          rs
      in
      let y_high =
        List.fold_left (fun acc a -> Float.max acc a.ap_y) 0. attaches
      in
      let y_low =
        if primary then 0.
        else if has_bridge then bridge_y.(cap)
        else 0.
      in
      { tk_cap = cap; tk_channel = ch; tk_track = track; tk_x = x;
        tk_y_low = y_low; tk_y_high = y_high; tk_attaches = attaches;
        tk_primary = primary }
    in
    let at = routes_at.(cap) in
    let trunks = ref [] in
    for ch = 0 to cols do
      match at.(ch) with
      | [] -> ()
      | r :: _ as rs ->
        trunks :=
          trunk ch ~track:r.Plan.track rs ~primary:(!trunks = []) :: !trunks
    done;
    let trunks = List.rev !trunks in
    (* wire + via emission for trunks and attaches *)
    List.iter
      (fun tk ->
         emit_wire
           { w_cap = cap; w_kind = Trunk; w_layer = Tech.Layer.M3;
             w_ax = tk.tk_x; w_ay = tk.tk_y_low;
             w_bx = tk.tk_x; w_by = tk.tk_y_high; w_p = p };
         List.iter
           (fun a ->
              emit_wire
                { w_cap = cap; w_kind = Stub; w_layer = Tech.Layer.M1;
                  w_ax = col_x.(a.ap_cell.Cell.col); w_ay = a.ap_y;
                  w_bx = a.ap_x; w_by = a.ap_y; w_p = p };
              emit_via { v_cap = cap; v_x = a.ap_x; v_y = a.ap_y; v_p = p })
           tk.tk_attaches)
      trunks;
    (* bridge *)
    let bridge =
      if has_bridge then begin
        let y = bridge_y.(cap) in
        let x_lo =
          List.fold_left (fun acc tk -> Float.min acc tk.tk_x) Float.infinity trunks
        and x_hi =
          List.fold_left (fun acc tk -> Float.max acc tk.tk_x) Float.neg_infinity trunks
        in
        emit_wire
          { w_cap = cap; w_kind = Bridge; w_layer = Tech.Layer.M1;
            w_ax = x_lo; w_ay = y; w_bx = x_hi; w_by = y; w_p = p };
        (* one junction via per trunk (secondary trunks land on the bridge;
           the primary trunk crosses it and taps it) *)
        List.iter
          (fun tk -> emit_via { v_cap = cap; v_x = tk.tk_x; v_y = y; v_p = p })
          trunks;
        Some y
      end
      else None
    in
    let driver_x =
      match trunks with
      | tk :: _ -> tk.tk_x
      | [] -> 0.
    in
    (* input connection via at the driver row *)
    if trunks <> [] then
      emit_via { v_cap = cap; v_x = driver_x; v_y = 0.; v_p = p };
    { cn_cap = cap; cn_groups = cap_groups; cn_trunks = trunks;
      cn_bridge_y = bridge; cn_driver_x = driver_x }
  in
  let nets =
    Telemetry.Span.with_ ~name:"route.nets" (fun () ->
        Array.init (bits + 1) build_net)
  in
  (* --- top plate: column runs + one horizontal connector (MST) --- *)
  let top_wires = ref [] in
  let mid_row = rows / 2 in
  if rows > 1 then
    Array.iter
      (fun x ->
         top_wires :=
           { w_cap = -2; w_kind = Top; w_layer = Tech.Layer.M2;
             w_ax = x; w_ay = row_y.(0); w_bx = x; w_by = row_y.(rows - 1);
             w_p = 1 }
           :: !top_wires)
      col_x;
  if cols > 1 then
    top_wires :=
      { w_cap = -2; w_kind = Top; w_layer = Tech.Layer.M2;
        w_ax = col_x.(0); w_ay = row_y.(mid_row);
        w_bx = col_x.(cols - 1); w_by = row_y.(mid_row); w_p = 1 }
      :: !top_wires;
  let top_length =
    List.fold_left (fun acc w -> acc +. wire_length w) 0. !top_wires
  in
  if Telemetry.Metrics.enabled () then begin
    Telemetry.Metrics.set "route/groups" (float_of_int (List.length groups));
    Telemetry.Metrics.set "route/tracks"
      (float_of_int (Plan.total_tracks plan));
    Telemetry.Metrics.set "route/wires"
      (float_of_int (List.length !wires + List.length !top_wires));
    Telemetry.Metrics.set "route/vias" (float_of_int (List.length !vias))
  end;
  { placement; tech; groups; plan; p_of_cap = p_arr; col_x; row_y;
    channel_width; bridge_height; width; height; nets;
    wires = List.rev !wires; vias = List.rev !vias;
    top_wires = !top_wires; top_length }
