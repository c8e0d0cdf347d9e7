let r_resistance =
  Diag.rule ~id:"tech/positive-resistance" ~severity:Diag.Error
    ~doc:
      "Via, plate and per-layer sheet resistances must be strictly positive \
       (the RC network is singular otherwise)."

let r_capacitance =
  Diag.rule ~id:"tech/positive-capacitance" ~severity:Diag.Error
    ~doc:
      "The unit capacitance must be strictly positive; per-layer area and \
       coupling capacitances and the top-substrate capacitance must be \
       non-negative."

let r_geometry =
  Diag.rule ~id:"tech/geometry" ~severity:Diag.Error
    ~doc:
      "Cell width/height and wire pitch must be strictly positive, cell \
       spacing non-negative, and the wire pitch smaller than the cell width \
       (channel tracks must fit next to a cell)."

let r_grid =
  Diag.rule ~id:"tech/grid" ~severity:Diag.Error
    ~doc:
      "Wire pitch, cell width, cell height and cell spacing must each be a \
       whole number of nanometres, to within 1e-12 um of float rounding: \
       the router sums and halves these lengths, so every drawn coordinate \
       lands on LVS's 0.5 nm grid."

let r_stack =
  Diag.rule ~id:"tech/layer-stack" ~severity:Diag.Error
    ~doc:
      "The metal stack must list M1, M2 and M3 exactly once each, in \
       monotone bottom-up order."

let r_statistics =
  Diag.rule ~id:"tech/statistics" ~severity:Diag.Error
    ~doc:
      "Statistical parameters must be sane: 0 <= rho_u < 1, a strictly \
       positive correlation length, non-negative gradient slope and mismatch \
       coefficient, and a finite gradient angle."

let rules =
  [ r_resistance; r_capacitance; r_geometry; r_grid; r_stack; r_statistics ]

(* How far (nm) a tech length may lie from a whole nanometre.  The
   router adds a length once per column, channel or track, so an error
   of e um in one reaches a coordinate thousands of times over, while LVS
   snaps a coordinate only within 1e-6 um (Lvs.Shape.tolerance_um): a
   cell width 5e-7 um past a whole nanometre already puts a 6-bit
   spiral's columns off the grid.  1e-12 um is far below that drift and
   far above the rounding of a whole-nanometre length written in
   decimal micrometres. *)
let grid_tolerance_nm = 1e-9

let check (tech : Tech.Process.t) =
  let out = ref [] in
  let emit rule ?loc fmt =
    Printf.ksprintf (fun d -> out := Diag.make ?loc rule d :: !out) fmt
  in
  let layer_loc (l : Tech.Layer.t) =
    Format.asprintf "%a" Tech.Layer.pp_name l.Tech.Layer.name
  in
  (* resistances *)
  if not (tech.Tech.Process.via_resistance > 0.) then
    emit r_resistance "via resistance %g ohm is not positive"
      tech.Tech.Process.via_resistance;
  if not (tech.Tech.Process.plate_resistance > 0.) then
    emit r_resistance "plate resistance %g ohm is not positive"
      tech.Tech.Process.plate_resistance;
  List.iter
    (fun (l : Tech.Layer.t) ->
       if not (l.Tech.Layer.resistance > 0.) then
         emit r_resistance ~loc:(layer_loc l)
           "sheet resistance %g ohm/um is not positive" l.Tech.Layer.resistance)
    tech.Tech.Process.stack;
  (* capacitances *)
  if not (tech.Tech.Process.unit_cap > 0.) then
    emit r_capacitance "unit capacitance %g fF is not positive"
      tech.Tech.Process.unit_cap;
  if not (tech.Tech.Process.top_substrate_cap >= 0.) then
    emit r_capacitance "top-substrate capacitance %g fF/um is negative"
      tech.Tech.Process.top_substrate_cap;
  List.iter
    (fun (l : Tech.Layer.t) ->
       if not (l.Tech.Layer.capacitance >= 0.) then
         emit r_capacitance ~loc:(layer_loc l)
           "area capacitance %g fF/um is negative" l.Tech.Layer.capacitance;
       if not (l.Tech.Layer.coupling >= 0.) then
         emit r_capacitance ~loc:(layer_loc l)
           "coupling capacitance %g fF/um is negative" l.Tech.Layer.coupling)
    tech.Tech.Process.stack;
  (* geometry *)
  if not (tech.Tech.Process.cell_width > 0.) then
    emit r_geometry "cell width %g um is not positive"
      tech.Tech.Process.cell_width;
  if not (tech.Tech.Process.cell_height > 0.) then
    emit r_geometry "cell height %g um is not positive"
      tech.Tech.Process.cell_height;
  if not (tech.Tech.Process.cell_spacing >= 0.) then
    emit r_geometry "cell spacing %g um is negative"
      tech.Tech.Process.cell_spacing;
  if not (tech.Tech.Process.wire_pitch > 0.) then
    emit r_geometry "wire pitch %g um is not positive"
      tech.Tech.Process.wire_pitch
  else if tech.Tech.Process.cell_width > 0.
          && not (tech.Tech.Process.wire_pitch < tech.Tech.Process.cell_width)
  then
    emit r_geometry "wire pitch %g um is not smaller than the cell width %g um"
      tech.Tech.Process.wire_pitch tech.Tech.Process.cell_width;
  List.iter
    (fun (what, v) ->
       let nm = v *. 1000. in
       if not (Float.abs (nm -. Float.round nm) <= grid_tolerance_nm) then
         emit r_grid "%s %.12g um is not a whole number of nanometres" what v)
    [ ("wire pitch", tech.Tech.Process.wire_pitch);
      ("cell width", tech.Tech.Process.cell_width);
      ("cell height", tech.Tech.Process.cell_height);
      ("cell spacing", tech.Tech.Process.cell_spacing) ];
  (* layer stack *)
  let names =
    List.map (fun (l : Tech.Layer.t) -> l.Tech.Layer.name)
      tech.Tech.Process.stack
  in
  if names <> [ Tech.Layer.M1; Tech.Layer.M2; Tech.Layer.M3 ] then
    emit r_stack "stack is [%s], expected [M1; M2; M3] bottom-up"
      (String.concat "; "
         (List.map (Format.asprintf "%a" Tech.Layer.pp_name) names));
  (* statistics *)
  if not (tech.Tech.Process.rho_u >= 0. && tech.Tech.Process.rho_u < 1.) then
    emit r_statistics "unit correlation rho_u %g outside [0, 1)"
      tech.Tech.Process.rho_u;
  if not (tech.Tech.Process.corr_length > 0.) then
    emit r_statistics "correlation length %g um is not positive"
      tech.Tech.Process.corr_length;
  if not (tech.Tech.Process.mismatch_coeff >= 0.) then
    emit r_statistics "mismatch coefficient %g is negative"
      tech.Tech.Process.mismatch_coeff;
  if not (tech.Tech.Process.gradient_ppm >= 0.) then
    emit r_statistics "gradient slope %g ppm/um is negative"
      tech.Tech.Process.gradient_ppm;
  if not (Float.is_finite tech.Tech.Process.gradient_theta) then
    emit r_statistics "gradient angle %g rad is not finite"
      tech.Tech.Process.gradient_theta;
  List.rev !out
