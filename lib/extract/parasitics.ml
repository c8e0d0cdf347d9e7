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

(* Per-capacitor sums over the vias and the routing wires of
   capacitors [0 .. n-1], one pass over each in layout order, so each
   capacitor's floats add up in the order its own vias and wires come.
   Branch wires are abutting MOM fingers (device layers), not routing
   metal: they are excluded from the wirelength, capacitance and
   resistance accounting, matching the paper's S metrics (Sec. V). *)
type sums = {
  via_cuts : int array;
  via_resistance : float array;
  wirelength : float array;
  wire_resistance : float array;
  wire_cap : float array;
}

(* Tech.Parallel's via and wire formulas are written out below, after
   its check of [p]: a call across modules is not inlined, and would box
   a float per via and two per wire. *)
let sums layout n =
  let tech = layout.Layout.tech in
  let s =
    { via_cuts = Array.make n 0; via_resistance = Array.make n 0.;
      wirelength = Array.make n 0.; wire_resistance = Array.make n 0.;
      wire_cap = Array.make n 0. }
  in
  let rvia = tech.Tech.Process.via_resistance in
  List.iter
    (fun (v : Layout.via) ->
       let k = v.Layout.v_cap and p = v.Layout.v_p in
       if k >= 0 && k < n then begin
         s.via_cuts.(k) <- s.via_cuts.(k) + Tech.Parallel.via_count ~p;
         s.via_resistance.(k) <- s.via_resistance.(k) +. (rvia /. float_of_int (p * p))
       end)
    layout.Layout.vias;
  let ws = layout.Layout.wires in
  let xy = ws.Layout.Wires.xy in
  let find_layer = Tech.Process.layers tech in
  for i = 0 to Layout.Wires.length ws - 1 do
    let k = Layout.Wires.cap ws i in
    if k >= 0 && k < n && Layout.Wires.kind ws i <> Layout.Branch then begin
      let layer = find_layer (Layout.Wires.layer ws i)
      and p = Layout.Wires.p ws i and j = 4 * i in
      Tech.Parallel.check_p p;
      let len =
        Float.abs (xy.(j + 2) -. xy.(j)) +. Float.abs (xy.(j + 3) -. xy.(j + 1))
      and fp = float_of_int p in
      s.wirelength.(k) <- s.wirelength.(k) +. len;
      s.wire_resistance.(k) <-
        s.wire_resistance.(k) +. (layer.Tech.Layer.resistance *. len /. fp);
      s.wire_cap.(k) <- s.wire_cap.(k) +. (layer.Tech.Layer.capacitance *. len *. fp)
    end
  done;
  s

let bit_metrics layout ~elmore_fs sums cap =
  let via_cuts = sums.via_cuts.(cap) and wirelength = sums.wirelength.(cap) in
  (* bends: orthogonal same-net junctions — each stub landing on its
     trunk, plus each trunk landing on the bridge.  The driver via is a
     layer change at the array edge, not a direction change. *)
  let bends =
    let net = layout.Layout.nets.(cap) in
    List.fold_left
      (fun acc (tk : Layout.trunk) -> acc + Array.length tk.Layout.tk_attaches)
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
    bm_via_resistance = sums.via_resistance.(cap);
    bm_wire_resistance = sums.wire_resistance.(cap);
    bm_wire_cap = sums.wire_cap.(cap);
    bm_elmore_fs = elmore_fs }

(* sum C^BB: coupling between adjacent trunk tracks in the same channel,
   proportional to the overlap of their vertical extents (Sec. II-B).
   [slot.(channel).(track)] is the trunk on that track, the last one
   listed where several claim it.  [slot] is filled from the static
   [[||]]: built by [Array.map] from a fresh array, it would force a
   minor collection beyond 256 channels. *)
let coupling_cap layout =
  let m3 = Tech.Process.layer layout.Layout.tech Tech.Layer.M3 in
  let track_caps = layout.Layout.plan.Plan.track_caps in
  let slot = Array.make (Array.length track_caps) [||] in
  Array.iteri
    (fun ch tracks -> slot.(ch) <- Array.make (Array.length tracks) None)
    track_caps;
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
  let sums = sums layout (bits + 1) in
  let scratch = Netbuild.scratch layout in
  (* One capacitor at a time, every net solved on the one scratch: the
     largest net of a 12-bit array solves in 0.15 ms (spiral) to 0.33 ms
     (chessboard) on a 2-core x86-64 VM, and a pool batch cost more to
     schedule than it saved (docs/PARALLEL.md). *)
  let per_bit =
    Array.init (bits + 1) (fun cap ->
        Telemetry.Span.with_ ~name:"extract.bit"
          ~attrs:[ ("cap", Telemetry.Span.Int cap) ]
          (fun () ->
             bit_metrics layout sums cap ~elmore_fs:(Netbuild.solve scratch ~cap)))
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
