open Ccroute

type bit_metrics = {
  bm_cap : int;
  bm_via_cuts : int;
  bm_bends : int;
  bm_wirelength : float;
  bm_via_resistance : float;
  bm_wire_resistance : float;
  bm_wire_cap : float;
  bm_elmore_fs : float;
}

type t = {
  per_bit : bit_metrics array;
  total_top_cap : float;
  total_wire_cap : float;
  total_coupling_cap : float;
  total_via_cuts : int;
  total_bends : int;
  total_wirelength : float;
  critical_bit : int;
  critical_elmore_fs : float;
  area : float;
}

let total_resistance m = m.bm_via_resistance +. m.bm_wire_resistance

let layer_of layout name = Tech.Process.layer layout.Layout.tech name

(* [bucket n cap_of items] groups the [items] naming capacitors
   [0 .. n-1] by capacitor with a counting sort, which keeps list order
   inside each bucket: capacitor [k]'s are
   [out.(start.(k)) .. out.(start.(k + 1) - 1)]. *)
let bucket n cap_of items =
  let start = Array.make (n + 1) 0 in
  List.iter
    (fun x ->
       let k = cap_of x in
       if k >= 0 && k < n then start.(k + 1) <- start.(k + 1) + 1)
    items;
  for k = 1 to n do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let out =
    match items with
    | [] -> [||]
    | x :: _ -> Array.make start.(n) x
  in
  let next = Array.sub start 0 n in
  List.iter
    (fun x ->
       let k = cap_of x in
       if k >= 0 && k < n then begin
         out.(next.(k)) <- x;
         next.(k) <- next.(k) + 1
       end)
    items;
  (start, out)

(* Branch wires are abutting MOM fingers (device layers), not routing
   metal: they are excluded from the wirelength, capacitance and
   resistance accounting, matching the paper's S metrics (Sec. V). *)
let routing_cap (w : Layout.wire) =
  if w.Layout.w_kind = Layout.Branch then -1 else w.Layout.w_cap

let bit_metrics layout ~elmore_fs ~wires ~vias cap =
  let tech = layout.Layout.tech in
  let ws, wire_of = wires and vs, via_of = vias in
  let via_cuts = ref 0 and via_resistance = ref 0. in
  for i = vs.(cap) to vs.(cap + 1) - 1 do
    let p = via_of.(i).Layout.v_p in
    via_cuts := !via_cuts + Tech.Parallel.via_count ~p;
    via_resistance := !via_resistance +. Tech.Parallel.via_resistance tech ~p
  done;
  let wirelength = ref 0. in
  let wire_resistance = ref 0. and wire_cap = ref 0. in
  for i = ws.(cap) to ws.(cap + 1) - 1 do
    let w = wire_of.(i) in
    let layer = layer_of layout w.Layout.w_layer in
    let len = Layout.wire_length w in
    wirelength := !wirelength +. len;
    wire_resistance :=
      !wire_resistance
      +. Tech.Parallel.wire_resistance layer ~length:len ~p:w.Layout.w_p;
    wire_cap :=
      !wire_cap
      +. Tech.Parallel.wire_capacitance layer ~length:len ~p:w.Layout.w_p
  done;
  let via_cuts = !via_cuts and wirelength = !wirelength in
  (* bends: orthogonal same-net junctions — each stub landing on its
     trunk, plus each trunk landing on the bridge.  The driver via is a
     layer change at the array edge, not a direction change. *)
  let bends =
    let net = layout.Layout.nets.(cap) in
    List.fold_left
      (fun acc (tk : Layout.trunk) -> acc + List.length tk.Layout.tk_attaches)
      0 net.Layout.cn_trunks
    + (match net.Layout.cn_bridge_y with
       | Some _ -> List.length net.Layout.cn_trunks
       | None -> 0)
  in
  if Telemetry.Metrics.enabled () then begin
    let label = Printf.sprintf "C%d" cap in
    Telemetry.Metrics.incr "extract/nets_total";
    Telemetry.Metrics.set ~label "extract/via_cuts" (float_of_int via_cuts);
    Telemetry.Metrics.set ~label "extract/bends" (float_of_int bends);
    Telemetry.Metrics.set ~label "extract/wirelength_um" wirelength
  end;
  { bm_cap = cap;
    bm_via_cuts = via_cuts;
    bm_bends = bends;
    bm_wirelength = wirelength;
    bm_via_resistance = !via_resistance;
    bm_wire_resistance = !wire_resistance;
    bm_wire_cap = !wire_cap;
    bm_elmore_fs = elmore_fs }

(* sum C^BB: coupling between adjacent trunk tracks in the same channel,
   proportional to the overlap of their vertical extents (Sec. II-B).
   [slot.(channel).(track)] is the trunk on that track, the last one
   listed where several claim it. *)
let coupling_cap layout =
  let m3 = layer_of layout Tech.Layer.M3 in
  let track_caps = layout.Layout.plan.Plan.track_caps in
  let slot =
    Array.map (fun tracks -> Array.make (Array.length tracks) None) track_caps
  in
  Array.iter
    (fun (net : Layout.capnet) ->
       List.iter
         (fun (tk : Layout.trunk) ->
            let ch = tk.Layout.tk_channel and t = tk.Layout.tk_track in
            if ch >= 0 && ch < Array.length slot && t >= 0
               && t < Array.length slot.(ch)
            then slot.(ch).(t) <- Some tk)
         net.Layout.cn_trunks)
    layout.Layout.nets;
  let total = ref 0. in
  Array.iter
    (fun tracks ->
       for t = 0 to Array.length tracks - 2 do
         match (tracks.(t), tracks.(t + 1)) with
         | Some a, Some b when a.Layout.tk_cap <> b.Layout.tk_cap ->
           let ia = Geom.Interval.make a.Layout.tk_y_low a.Layout.tk_y_high in
           let ib = Geom.Interval.make b.Layout.tk_y_low b.Layout.tk_y_high in
           let overlap = Geom.Interval.overlap_length ia ib in
           total := !total +. (m3.Tech.Layer.coupling *. overlap)
         | Some _, Some _ | Some _, None | None, Some _ | None, None -> ()
       done)
    slot;
  !total

let extract layout =
  let bits = layout.Layout.placement.Ccgrid.Placement.bits in
  let wires = bucket (bits + 1) routing_cap layout.Layout.wires in
  let vias =
    bucket (bits + 1) (fun (v : Layout.via) -> v.Layout.v_cap) layout.Layout.vias
  in
  let build = Netbuild.builder layout in
  (* One capacitor at a time: a net extracts in about half a millisecond
     at 12 bits, and a pool batch cost more to schedule than it saved
     (docs/PARALLEL.md). *)
  let per_bit =
    Array.init (bits + 1) (fun cap ->
        Telemetry.Span.with_ ~name:"extract.bit"
          ~attrs:[ ("cap", Telemetry.Span.Int cap) ]
          (fun () ->
             bit_metrics layout ~wires ~vias cap
               ~elmore_fs:(Netbuild.worst_elmore_fs (build ~cap))))
  in
  let total_wire_cap =
    Array.fold_left (fun acc m -> acc +. m.bm_wire_cap) 0. per_bit
  in
  let total_via_cuts =
    Array.fold_left (fun acc m -> acc + m.bm_via_cuts) 0 per_bit
  in
  let total_bends =
    Array.fold_left (fun acc m -> acc + m.bm_bends) 0 per_bit
  in
  let total_wirelength =
    Array.fold_left (fun acc m -> acc +. m.bm_wirelength) 0. per_bit
  in
  let critical_bit, critical_elmore_fs =
    Array.fold_left
      (fun (kb, best) m ->
         if m.bm_elmore_fs > best then (m.bm_cap, m.bm_elmore_fs) else (kb, best))
      (0, Float.neg_infinity) per_bit
  in
  { per_bit;
    total_top_cap =
      layout.Layout.top_length *. layout.Layout.tech.Tech.Process.top_substrate_cap;
    total_wire_cap;
    total_coupling_cap = coupling_cap layout;
    total_via_cuts;
    total_bends;
    total_wirelength;
    critical_bit;
    critical_elmore_fs;
    area = layout.Layout.width *. layout.Layout.height }
