type t = {
  name : string;
  stack : Layer.t list;
  via_resistance : float;
  plate_resistance : float;
  wire_pitch : float;
  cell_width : float;
  cell_height : float;
  cell_spacing : float;
  unit_cap : float;
  top_substrate_cap : float;
  gradient_ppm : float;
  gradient_theta : float;
  rho_u : float;
  corr_length : float;
  mismatch_coeff : float;
}

(* Reserved directions: M1/M3 route horizontally-vertically alternating.
   Bottom-plate branch wires live on M1 (horizontal), trunk wires in the
   vertical channels on M3 (vertical), bridge wires at the bottom on M1
   again; the top plate is on M2 (vertical column runs). *)
let finfet_stack =
  [ { Layer.name = Layer.M1; direction = Geom.Axis.Horizontal;
      resistance = 10.0; capacitance = 0.010; coupling = 0.020 };
    { Layer.name = Layer.M2; direction = Geom.Axis.Vertical;
      resistance = 10.0; capacitance = 0.010; coupling = 0.020 };
    { Layer.name = Layer.M3; direction = Geom.Axis.Vertical;
      resistance = 18.0; capacitance = 0.012; coupling = 0.022 } ]

let finfet_12nm = {
  name = "finfet-12nm-class";
  stack = finfet_stack;
  via_resistance = 36.0;
  plate_resistance = 0.5;
  wire_pitch = 0.064;
  cell_width = 1.70;
  cell_height = 1.70;
  cell_spacing = 0.07;
  unit_cap = 5.0;
  top_substrate_cap = 0.0002;
  gradient_ppm = 10.0;
  gradient_theta = Float.pi /. 6.;
  rho_u = 0.9;
  corr_length = 2.0;
  mismatch_coeff = 0.002;
}

let bulk_stack =
  [ { Layer.name = Layer.M1; direction = Geom.Axis.Horizontal;
      resistance = 0.8; capacitance = 0.030; coupling = 0.040 };
    { Layer.name = Layer.M2; direction = Geom.Axis.Vertical;
      resistance = 0.8; capacitance = 0.030; coupling = 0.040 };
    { Layer.name = Layer.M3; direction = Geom.Axis.Vertical;
      resistance = 0.5; capacitance = 0.035; coupling = 0.045 } ]

let bulk_legacy = {
  name = "bulk-legacy";
  stack = bulk_stack;
  via_resistance = 0.8;
  plate_resistance = 0.1;
  wire_pitch = 0.28;
  cell_width = 4.0;
  cell_height = 4.0;
  cell_spacing = 0.3;
  unit_cap = 5.0;
  top_substrate_cap = 0.002;
  gradient_ppm = 10.0;
  gradient_theta = Float.pi /. 6.;
  rho_u = 0.9;
  corr_length = 4.3;
  mismatch_coeff = 0.002;
}

let cell_pitch_x t = t.cell_width +. t.cell_spacing
let cell_pitch_y t = t.cell_height +. t.cell_spacing

let sigma_rel t =
  assert (t.unit_cap > 0.);
  t.mismatch_coeff *. sqrt (1.0 /. t.unit_cap)

let sigma_u t = sigma_rel t *. t.unit_cap
let layer t n = Layer.find t.stack n

let layers t =
  let m1 = ref None and m2 = ref None and m3 = ref None in
  fun n ->
    let cell =
      match n with
      | Layer.M1 -> m1
      | Layer.M2 -> m2
      | Layer.M3 -> m3
    in
    match !cell with
    | Some l -> l
    | None ->
      let l = layer t n in
      cell := Some l;
      l

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s: Cu=%.2f fF, pitch=%.3f um, Rvia=%.1f ohm,@ cell=%.2fx%.2f um, \
     gamma=%.1f ppm/um, rho_u=%.2f, Lc=%.0f um@]"
    t.name t.unit_cap t.wire_pitch t.via_resistance t.cell_width t.cell_height
    t.gradient_ppm t.rho_u t.corr_length
