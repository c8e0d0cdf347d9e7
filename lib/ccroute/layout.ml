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

module Wires = struct
  type t = {
    xy : float array;
    attr : int array;
  }

  let length t = Array.length t.attr / 4

  let kind_code = function
    | Branch -> 0
    | Stub -> 1
    | Trunk -> 2
    | Bridge -> 3
    | Top -> 4

  let kind_of_code = function
    | 0 -> Branch
    | 1 -> Stub
    | 2 -> Trunk
    | 3 -> Bridge
    | _ -> Top

  let layer_code = function
    | Tech.Layer.M1 -> 0
    | Tech.Layer.M2 -> 1
    | Tech.Layer.M3 -> 2

  let layer_of_code = function
    | 0 -> Tech.Layer.M1
    | 1 -> Tech.Layer.M2
    | _ -> Tech.Layer.M3

  let cap t i = t.attr.(4 * i)
  let kind t i = kind_of_code t.attr.((4 * i) + 1)
  let layer t i = layer_of_code t.attr.((4 * i) + 2)
  let p t i = t.attr.((4 * i) + 3)

  let create n = { xy = Array.make (4 * n) 0.; attr = Array.make (4 * n) 0 }

  (* Writes wire [i]'s attributes and returns [4 i], where its endpoints
     go: the caller stores them straight into [xy], unboxed. *)
  let set t i ~cap kind layer ~p =
    let j = 4 * i in
    t.attr.(j) <- cap;
    t.attr.(j + 1) <- kind_code kind;
    t.attr.(j + 2) <- layer_code layer;
    t.attr.(j + 3) <- p;
    j

  (* [set] on wires 0, 1, 2, ... in turn *)
  let filler t =
    let next = ref 0 in
    fun ~cap kind layer ~p ->
      let j = set t !next ~cap kind layer ~p in
      incr next;
      j

  let get t i =
    let j = 4 * i in
    { w_cap = cap t i; w_kind = kind t i; w_layer = layer t i;
      w_ax = t.xy.(j); w_ay = t.xy.(j + 1); w_bx = t.xy.(j + 2);
      w_by = t.xy.(j + 3); w_p = p t i }

  let of_list ws =
    let t = create (List.length ws) in
    List.iteri
      (fun i w ->
         let j = set t i ~cap:w.w_cap w.w_kind w.w_layer ~p:w.w_p in
         t.xy.(j) <- w.w_ax;
         t.xy.(j + 1) <- w.w_ay;
         t.xy.(j + 2) <- w.w_bx;
         t.xy.(j + 3) <- w.w_by)
      ws;
    t

  let to_list t =
    let rec from i acc = if i < 0 then acc else from (i - 1) (get t i :: acc) in
    from (length t - 1) []
end

type via = {
  v_cap : int;
  v_x : float;
  v_y : float;
  v_p : int;
}

type trunk = {
  tk_cap : int;
  tk_channel : int;
  tk_track : int;
  tk_x : float;
  tk_y_low : float;
  tk_y_high : float;
  tk_attaches : int array;
  tk_primary : bool;
}

type capnet = {
  cn_cap : int;
  cn_groups : int array;
  cn_trunks : trunk list;
  cn_bridge_y : float option;
  cn_driver_x : float;
}

type t = {
  placement : Placement.t;
  tech : Tech.Process.t;
  groups : Group.t;
  plan : Plan.t;
  p_of_cap : int array;
  col_x : float array;
  row_y : float array;
  channel_width : float array;
  bridge_height : float;
  width : float;
  height : float;
  nets : capnet array;
  wires : Wires.t;
  vias : via list;
  top_wires : Wires.t;
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
  (* the groups connected in each (capacitor, channel), key
     [cap * (cols + 1) + ch], in reverse connection order:
     [by_key.(at.(key)) .. by_key.(at.(key + 1) - 1)], a counting sort
     of the plan's order read backwards; and the number of channels
     each capacitor uses *)
  let order = plan.Plan.order and attach = plan.Plan.attach in
  let keys = (bits + 1) * (cols + 1) in
  let key g = (groups.Group.cap.(g) * (cols + 1)) + plan.Plan.channel.(g) in
  let at = Array.make (keys + 2) 0 in
  Array.iter (fun g -> at.(key g + 2) <- at.(key g + 2) + 1) order;
  for k = 2 to keys + 1 do
    at.(k) <- at.(k) + at.(k - 1)
  done;
  let by_key = Array.make (Array.length order) 0 in
  for c = Array.length order - 1 downto 0 do
    let g = order.(c) in
    let k = key g in
    by_key.(at.(k + 1)) <- g;
    at.(k + 1) <- at.(k + 1) + 1
  done;
  let trunk_count = Array.make (bits + 1) 0 in
  for cap = 0 to bits do
    for ch = 0 to cols do
      let k = (cap * (cols + 1)) + ch in
      if at.(k + 1) > at.(k) then trunk_count.(cap) <- trunk_count.(cap) + 1
    done
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
  let build_net cap =
    (* trunks, one per channel used by this capacitor, in channel order;
       the first is the primary *)
    let has_bridge = needs_bridge.(cap) in
    let trunk ch ~primary =
      let k = (cap * (cols + 1)) + ch in
      let attaches = Array.sub by_key at.(k) (at.(k + 1) - at.(k)) in
      let track = plan.Plan.track.(attaches.(0)) in
      let x = track_x.(ch).(track) in
      let y_high = ref 0. in
      for i = 0 to Array.length attaches - 1 do
        y_high := Float.max !y_high row_y.(attach.(attaches.(i)) / cols)
      done;
      let y_low =
        if primary then 0.
        else if has_bridge then bridge_y.(cap)
        else 0.
      in
      { tk_cap = cap; tk_channel = ch; tk_track = track; tk_x = x;
        tk_y_low = y_low; tk_y_high = !y_high; tk_attaches = attaches;
        tk_primary = primary }
    in
    let used ch =
      let k = (cap * (cols + 1)) + ch in
      at.(k + 1) > at.(k)
    in
    let first = ref (cols + 1) in
    for ch = cols downto 0 do
      if used ch then first := ch
    done;
    let trunks = ref [] in
    for ch = cols downto !first do
      if used ch then trunks := trunk ch ~primary:(ch = !first) :: !trunks
    done;
    let trunks = !trunks in
    let lo = groups.Group.cap_first.(cap) and hi = groups.Group.cap_first.(cap + 1) in
    { cn_cap = cap; cn_groups = Array.init (hi - lo) (fun i -> lo + i);
      cn_trunks = trunks;
      cn_bridge_y = (if has_bridge then Some bridge_y.(cap) else None);
      cn_driver_x =
        (match trunks with
         | tk :: _ -> tk.tk_x
         | [] -> 0.) }
  in
  let nets =
    Telemetry.Span.with_ ~name:"route.nets" (fun () ->
        Array.init (bits + 1) build_net)
  in
  (* --- bottom-plate wires, net by net: the branch connections inside
     each group are abutting MOM fingers on the device layers — they
     carry plate resistance but are not routing metal, so they are
     rendered as Branch wires and excluded from the
     wirelength/capacitance/via metrics (Sec. V: "unit capacitors use
     nearest-neighbor connections using the same metal layer with no
     vias"); then each trunk with the stubs of its attaches, then the
     bridge --- *)
  let wires =
    Wires.create
      (Array.fold_left
         (fun acc net ->
            Array.fold_left (fun acc g -> acc + Group.edges groups g) acc
              net.cn_groups
            + List.fold_left
              (fun acc tk -> acc + 1 + Array.length tk.tk_attaches)
              0 net.cn_trunks
            + if Option.is_some net.cn_bridge_y then 1 else 0)
         0 nets)
  in
  let xy = wires.Wires.xy and put = Wires.filler wires in
  Array.iter
    (fun net ->
       let cap = net.cn_cap in
       let p = p_arr.(cap) in
       let e = groups.Group.tree_edges in
       Array.iter
         (fun g ->
            let e0 = Group.edge_first groups g in
            for k = e0 to e0 + Group.edges groups g - 1 do
              let a = e.(2 * k) and b = e.((2 * k) + 1) in
              let j = put ~cap Branch Tech.Layer.M1 ~p in
              xy.(j) <- col_x.(a mod cols);
              xy.(j + 1) <- row_y.(a / cols);
              xy.(j + 2) <- col_x.(b mod cols);
              xy.(j + 3) <- row_y.(b / cols)
            done)
         net.cn_groups;
       List.iter
         (fun tk ->
            let j = put ~cap Trunk Tech.Layer.M3 ~p in
            xy.(j) <- tk.tk_x;
            xy.(j + 1) <- tk.tk_y_low;
            xy.(j + 2) <- tk.tk_x;
            xy.(j + 3) <- tk.tk_y_high;
            Array.iter
              (fun g ->
                 let cell = attach.(g) in
                 let j = put ~cap Stub Tech.Layer.M1 ~p in
                 xy.(j) <- col_x.(cell mod cols);
                 xy.(j + 1) <- row_y.(cell / cols);
                 xy.(j + 2) <- tk.tk_x;
                 xy.(j + 3) <- row_y.(cell / cols))
              tk.tk_attaches)
         net.cn_trunks;
       match net.cn_bridge_y with
       | None -> ()
       | Some y ->
         let j = put ~cap Bridge Tech.Layer.M1 ~p in
         xy.(j) <-
           List.fold_left (fun acc tk -> Float.min acc tk.tk_x) Float.infinity
             net.cn_trunks;
         xy.(j + 1) <- y;
         xy.(j + 2) <-
           List.fold_left (fun acc tk -> Float.max acc tk.tk_x) Float.neg_infinity
             net.cn_trunks;
         xy.(j + 3) <- y)
    nets;
  (* --- logical vias, built back to front so the list needs no
     reversal.  Per net: one at each attach (trunk order), one junction
     per trunk on the bridge (secondary trunks land on the bridge; the
     primary trunk crosses it and taps it), and the input connection at
     the driver row --- *)
  let vias = ref [] in
  for cap = bits downto 0 do
    let net = nets.(cap) and p = p_arr.(cap) in
    if net.cn_trunks <> [] then
      vias := { v_cap = cap; v_x = net.cn_driver_x; v_y = 0.; v_p = p } :: !vias;
    (match net.cn_bridge_y with
     | None -> ()
     | Some y ->
       vias :=
         List.fold_right
           (fun tk acc -> { v_cap = cap; v_x = tk.tk_x; v_y = y; v_p = p } :: acc)
           net.cn_trunks !vias);
    vias :=
      List.fold_right
        (fun tk acc ->
           let acc = ref acc and x = tk.tk_x in
           for i = Array.length tk.tk_attaches - 1 downto 0 do
             acc :=
               { v_cap = cap; v_x = x;
                 v_y = row_y.(attach.(tk.tk_attaches.(i)) / cols); v_p = p }
               :: !acc
           done;
           !acc)
        net.cn_trunks !vias
  done;
  (* --- top plate: one horizontal connector (MST), then the column runs
     from the right --- *)
  let mid_row = rows / 2 in
  let top_wires =
    Wires.create ((if rows > 1 then cols else 0) + if cols > 1 then 1 else 0)
  in
  let xy = top_wires.Wires.xy and put = Wires.filler top_wires in
  let put () = put ~cap:(-2) Top Tech.Layer.M2 ~p:1 in
  if cols > 1 then begin
    let j = put () in
    xy.(j) <- col_x.(0);
    xy.(j + 1) <- row_y.(mid_row);
    xy.(j + 2) <- col_x.(cols - 1);
    xy.(j + 3) <- row_y.(mid_row)
  end;
  if rows > 1 then
    for col = cols - 1 downto 0 do
      let j = put () in
      xy.(j) <- col_x.(col);
      xy.(j + 1) <- row_y.(0);
      xy.(j + 2) <- col_x.(col);
      xy.(j + 3) <- row_y.(rows - 1)
    done;
  let top_length = ref 0. in
  for i = 0 to Wires.length top_wires - 1 do
    let j = 4 * i in
    top_length :=
      !top_length
      +. (Float.abs (xy.(j + 2) -. xy.(j)) +. Float.abs (xy.(j + 3) -. xy.(j + 1)))
  done;
  if Telemetry.Metrics.enabled () then begin
    Telemetry.Metrics.set "route/groups" (float_of_int (Group.count groups));
    Telemetry.Metrics.set "route/tracks"
      (float_of_int (Plan.total_tracks plan));
    Telemetry.Metrics.set "route/wires"
      (float_of_int (Wires.length wires + Wires.length top_wires));
    Telemetry.Metrics.set "route/vias" (float_of_int (List.length !vias))
  end;
  { placement; tech; groups; plan; p_of_cap = p_arr; col_x; row_y;
    channel_width; bridge_height; width; height; nets; wires; vias = !vias;
    top_wires; top_length = !top_length }
