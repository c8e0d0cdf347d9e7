open Ccgrid

(* categorical palette; capacitor k uses palette.(k mod len) *)
let palette =
  [| "#4e79a7"; "#f28e2b"; "#e15759"; "#76b7b2"; "#59a14f"; "#edc948";
     "#b07aa1"; "#ff9da7"; "#9c755f"; "#bab0ac"; "#1b9e77"; "#d95f02" |]

let cap_color cap =
  if cap = Placement.dummy then "#e0e0e0"
  else palette.(cap mod Array.length palette)

let layer_color = function
  | Tech.Layer.M1 -> "#d62728"
  | Tech.Layer.M2 -> "#2ca02c"
  | Tech.Layer.M3 -> "#1f77b4"

(* pixels per micrometre *)
let scale = 24.

let render ?(show_top = true) (layout : Layout.t) =
  let buf = Buffer.create (1 lsl 16) in
  let w = layout.Layout.width *. scale in
  let h = layout.Layout.height *. scale in
  (* SVG y grows downward; flip so the driver row (y = 0) is at the bottom *)
  let px x = x *. scale in
  let py y = h -. (y *. scale) in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" \
       viewBox=\"0 0 %.2f %.2f\">\n" w h w h;
  add "<rect width=\"%.2f\" height=\"%.2f\" fill=\"#fafafa\"/>\n" w h;
  (* unit cells *)
  let tech = layout.Layout.tech in
  let cw = tech.Tech.Process.cell_width *. scale in
  let ch = tech.Tech.Process.cell_height *. scale in
  let placement = layout.Layout.placement in
  for row = 0 to placement.Placement.rows - 1 do
    for col = 0 to placement.Placement.cols - 1 do
      let x = layout.Layout.col_x.(col) and y = layout.Layout.row_y.(row) in
      let id = placement.Placement.assign.(row).(col) in
      add
        "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.2f\" \
         fill=\"%s\" stroke=\"#666\" stroke-width=\"0.5\" fill-opacity=\"0.55\"/>\n"
        (px x -. (cw /. 2.))
        (py y -. (ch /. 2.))
        cw ch (cap_color id);
      if id <> Placement.dummy then
        add
          "<text x=\"%.2f\" y=\"%.2f\" font-size=\"%.1f\" text-anchor=\"middle\" \
           dominant-baseline=\"central\" font-family=\"monospace\">%c</text>\n"
          (px x) (py y) (ch /. 2.5)
          (Render.glyph id)
    done
  done;
  (* bottom-plate wires *)
  let draw_wires (ws : Layout.Wires.t) ~opacity =
    let xy = ws.Layout.Wires.xy in
    for i = 0 to Layout.Wires.length ws - 1 do
      let width =
        match Layout.Wires.kind ws i with
        | Layout.Branch -> 1.0
        | Layout.Stub -> 1.5
        | Layout.Trunk | Layout.Bridge -> 1.0 +. float_of_int (Layout.Wires.p ws i)
        | Layout.Top -> 1.0
      in
      let j = 4 * i in
      add
        "<line x1=\"%.2f\" y1=\"%.2f\" x2=\"%.2f\" y2=\"%.2f\" stroke=\"%s\" \
         stroke-width=\"%.1f\" stroke-opacity=\"%.2f\"/>\n"
        (px xy.(j)) (py xy.(j + 1)) (px xy.(j + 2)) (py xy.(j + 3))
        (layer_color (Layout.Wires.layer ws i))
        width opacity
    done
  in
  draw_wires layout.Layout.wires ~opacity:0.9;
  if show_top then draw_wires layout.Layout.top_wires ~opacity:0.35;
  (* vias *)
  List.iter
    (fun (v : Layout.via) ->
       add
         "<circle cx=\"%.2f\" cy=\"%.2f\" r=\"%.1f\" fill=\"#222\"/>\n"
         (px v.Layout.v_x) (py v.Layout.v_y)
         (1.2 +. (0.4 *. float_of_int v.Layout.v_p)))
    layout.Layout.vias;
  (* caption *)
  add
    "<text x=\"4\" y=\"12\" font-size=\"10\" font-family=\"monospace\" \
     fill=\"#333\">%s %d-bit, %.0fx%.0f um, %d via cuts</text>\n"
    placement.Placement.style_name placement.Placement.bits layout.Layout.width
    layout.Layout.height
    (List.fold_left
       (fun acc (v : Layout.via) -> acc + Tech.Parallel.via_count ~p:v.Layout.v_p)
       0 layout.Layout.vias);
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let write ?show_top layout ~path =
  let oc = open_out path in
  (try output_string oc (render ?show_top layout)
   with e ->
     close_out oc;
     raise e);
  close_out oc
