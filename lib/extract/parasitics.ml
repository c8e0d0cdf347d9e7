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

let bit_metrics layout ~elmore_fs cap =
  let tech = layout.Layout.tech in
  (* Branch wires are abutting MOM fingers (device layers), not routing
     metal: they are excluded from the wirelength, capacitance and
     resistance accounting, matching the paper's S metrics (Sec. V). *)
  let wires =
    List.filter
      (fun w -> w.Layout.w_cap = cap && w.Layout.w_kind <> Layout.Branch)
      layout.Layout.wires
  in
  let vias = List.filter (fun v -> v.Layout.v_cap = cap) layout.Layout.vias in
  let via_cuts =
    List.fold_left (fun acc v -> acc + Tech.Parallel.via_count ~p:v.Layout.v_p) 0 vias
  in
  let via_resistance =
    List.fold_left
      (fun acc v -> acc +. Tech.Parallel.via_resistance tech ~p:v.Layout.v_p)
      0. vias
  in
  let wirelength =
    List.fold_left (fun acc w -> acc +. Layout.wire_length w) 0. wires
  in
  let wire_resistance, wire_cap =
    List.fold_left
      (fun (r, c) w ->
         let layer = layer_of layout w.Layout.w_layer in
         let len = Layout.wire_length w in
         ( r +. Tech.Parallel.wire_resistance layer ~length:len ~p:w.Layout.w_p,
           c +. Tech.Parallel.wire_capacitance layer ~length:len ~p:w.Layout.w_p ))
      (0., 0.) wires
  in
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
  let elmore_fs = elmore_fs cap in
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
    bm_via_resistance = via_resistance;
    bm_wire_resistance = wire_resistance;
    bm_wire_cap = wire_cap;
    bm_elmore_fs = elmore_fs }

(* sum C^BB: coupling between adjacent trunk tracks in the same channel,
   proportional to the overlap of their vertical extents (Sec. II-B). *)
let coupling_cap layout =
  let m3 = layer_of layout Tech.Layer.M3 in
  let trunks_by_slot = Hashtbl.create 32 in
  Array.iter
    (fun (net : Layout.capnet) ->
       List.iter
         (fun (tk : Layout.trunk) ->
            Hashtbl.replace trunks_by_slot
              (tk.Layout.tk_channel, tk.Layout.tk_track) tk)
         net.Layout.cn_trunks)
    layout.Layout.nets;
  let total = ref 0. in
  Array.iteri
    (fun channel tracks ->
       let n = Array.length tracks in
       for t = 0 to n - 2 do
         match
           ( Hashtbl.find_opt trunks_by_slot (channel, t),
             Hashtbl.find_opt trunks_by_slot (channel, t + 1) )
         with
         | Some a, Some b when a.Layout.tk_cap <> b.Layout.tk_cap ->
           let ia = Geom.Interval.make a.Layout.tk_y_low a.Layout.tk_y_high in
           let ib = Geom.Interval.make b.Layout.tk_y_low b.Layout.tk_y_high in
           let overlap = Geom.Interval.overlap_length ia ib in
           total := !total +. (m3.Tech.Layer.coupling *. overlap)
         | Some _, Some _ | Some _, None | None, Some _ | None, None -> ()
       done)
    layout.Layout.plan.Plan.track_caps;
  !total

(* [elmore_fs cap] is capacitor [cap]'s worst-cell Elmore delay. *)
let of_elmore layout elmore_fs =
  let bits = layout.Layout.placement.Ccgrid.Placement.bits in
  (* One capacitor at a time: a net extracts in about half a millisecond
     at 12 bits, and a pool batch cost more to schedule than it saved
     (docs/PARALLEL.md). *)
  let per_bit =
    Array.init (bits + 1) (fun cap ->
        Telemetry.Span.with_ ~name:"extract.bit"
          ~attrs:[ ("cap", Telemetry.Span.Int cap) ]
          (fun () -> bit_metrics layout ~elmore_fs cap))
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

let extract layout =
  let build = Netbuild.builder layout in
  of_elmore layout (fun cap -> Netbuild.worst_elmore_fs (build ~cap))

let with_elmore layout ~elmore_fs = of_elmore layout (Array.get elmore_fs)
