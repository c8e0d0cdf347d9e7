module Json = Telemetry.Json

type t = {
  schema_version : int;
  label : string;
  style : string;
  bits : int;
  tech_name : string;
  tech_hash : string;
  repeat : int;
  stage_s : (string * float) list;
  place_route_s : float;
  stage_alloc_mb : (string * float) list;
  alloc_mb_total : float;
  peak_heap_mb : float;
  major_collections : int;
  f3db_mhz : float;
  max_inl_lsb : float;
  max_dnl_lsb : float;
  tau_fs : float;
  critical_bit : int;
  via_cuts : int;
  bends : int;
  wirelength_um : float;
  area_um2 : float;
  verify_rules : string list;
  lvs_rules : string list;
  provenance : Provenance.t;
}

let schema_version = 1

let label ~style ~bits = Printf.sprintf "%s b%d" style bits

(* FNV-1a 64-bit over a canonical rendering of every Process field.  The
   canonical string spells each float with %h (hex, lossless) so the hash
   is a function of the exact values, not of printf rounding. *)
let tech_hash (tech : Tech.Process.t) =
  let b = Buffer.create 256 in
  let f x = Buffer.add_string b (Printf.sprintf "%h;" x) in
  let s x =
    Buffer.add_string b x;
    Buffer.add_char b ';'
  in
  s tech.Tech.Process.name;
  List.iter
    (fun (l : Tech.Layer.t) ->
       s (Format.asprintf "%a" Tech.Layer.pp_name l.Tech.Layer.name);
       s (Geom.Axis.to_string l.Tech.Layer.direction);
       f l.Tech.Layer.resistance;
       f l.Tech.Layer.capacitance;
       f l.Tech.Layer.coupling)
    tech.Tech.Process.stack;
  f tech.Tech.Process.via_resistance;
  f tech.Tech.Process.plate_resistance;
  f tech.Tech.Process.wire_pitch;
  f tech.Tech.Process.cell_width;
  f tech.Tech.Process.cell_height;
  f tech.Tech.Process.cell_spacing;
  f tech.Tech.Process.unit_cap;
  f tech.Tech.Process.top_substrate_cap;
  f tech.Tech.Process.gradient_ppm;
  f tech.Tech.Process.gradient_theta;
  f tech.Tech.Process.rho_u;
  f tech.Tech.Process.corr_length;
  f tech.Tech.Process.mismatch_coeff;
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
       h := Int64.logxor !h (Int64.of_int (Char.code c));
       h := Int64.mul !h 0x100000001b3L)
    (Buffer.contents b);
  Printf.sprintf "%016Lx" !h

let of_result ?(repeat = 1) (r : Ccdac.Flow.result) =
  let style = Ccplace.Style.name r.Ccdac.Flow.style in
  let p = r.Ccdac.Flow.parasitics in
  { schema_version;
    label = label ~style ~bits:r.Ccdac.Flow.bits;
    style;
    bits = r.Ccdac.Flow.bits;
    tech_name = r.Ccdac.Flow.tech.Tech.Process.name;
    tech_hash = tech_hash r.Ccdac.Flow.tech;
    repeat;
    stage_s = r.Ccdac.Flow.telemetry.Telemetry.Summary.stages;
    place_route_s = r.Ccdac.Flow.elapsed_place_route_s;
    stage_alloc_mb =
      List.map
        (fun (n, d) -> (n, Telemetry.Memory.allocated_mb d))
        (Telemetry.Summary.memory_stages r.Ccdac.Flow.telemetry);
    alloc_mb_total =
      (match Telemetry.Summary.total_memory r.Ccdac.Flow.telemetry with
       | Some d -> Telemetry.Memory.allocated_mb d
       | None -> Float.nan);
    peak_heap_mb =
      (match Telemetry.Summary.total_memory r.Ccdac.Flow.telemetry with
       | Some d -> Telemetry.Memory.peak_heap_mb d
       | None -> Float.nan);
    major_collections =
      (match Telemetry.Summary.total_memory r.Ccdac.Flow.telemetry with
       | Some d -> d.Telemetry.Memory.major_collections
       | None -> 0);
    f3db_mhz = r.Ccdac.Flow.f3db_mhz;
    max_inl_lsb = r.Ccdac.Flow.max_inl;
    max_dnl_lsb = r.Ccdac.Flow.max_dnl;
    tau_fs = r.Ccdac.Flow.tau_fs;
    critical_bit = r.Ccdac.Flow.critical_bit;
    via_cuts = p.Extract.Parasitics.total_via_cuts;
    bends = p.Extract.Parasitics.total_bends;
    wirelength_um = p.Extract.Parasitics.total_wirelength;
    area_um2 = r.Ccdac.Flow.area;
    verify_rules = Verify.Diagnostic.rule_ids r.Ccdac.Flow.verify_diagnostics;
    lvs_rules = Verify.Diagnostic.rule_ids r.Ccdac.Flow.lvs_diagnostics;
    provenance = Provenance.capture () }

let to_json t =
  Json.Obj
    [ ("schema_version", Json.Num (float_of_int t.schema_version));
      ("label", Json.Str t.label);
      ("style", Json.Str t.style);
      ("bits", Json.Num (float_of_int t.bits));
      ("tech_name", Json.Str t.tech_name);
      ("tech_hash", Json.Str t.tech_hash);
      ("repeat", Json.Num (float_of_int t.repeat));
      ( "stage_s",
        Json.Obj (List.map (fun (n, s) -> (n, Json.Num s)) t.stage_s) );
      ("place_route_s", Json.Num t.place_route_s);
      ( "stage_alloc_mb",
        Json.Obj (List.map (fun (n, s) -> (n, Json.Num s)) t.stage_alloc_mb) );
      ("alloc_mb_total", Json.Num t.alloc_mb_total);
      ("peak_heap_mb", Json.Num t.peak_heap_mb);
      ("major_collections", Json.Num (float_of_int t.major_collections));
      ("f3db_mhz", Json.Num t.f3db_mhz);
      ("max_inl_lsb", Json.Num t.max_inl_lsb);
      ("max_dnl_lsb", Json.Num t.max_dnl_lsb);
      ("tau_fs", Json.Num t.tau_fs);
      ("critical_bit", Json.Num (float_of_int t.critical_bit));
      ("via_cuts", Json.Num (float_of_int t.via_cuts));
      ("bends", Json.Num (float_of_int t.bends));
      ("wirelength_um", Json.Num t.wirelength_um);
      ("area_um2", Json.Num t.area_um2);
      ("verify_rules", Json.Arr (List.map (fun r -> Json.Str r) t.verify_rules));
      ("lvs_rules", Json.Arr (List.map (fun r -> Json.Str r) t.lvs_rules));
      ("provenance", Provenance.to_json t.provenance) ]

let of_json j =
  match j with
  | Json.Obj _ ->
    let num name d =
      match Option.bind (Json.member name j) Json.to_float with
      | Some v -> v
      | None -> d
    in
    let int name d =
      let v = num name (float_of_int d) in
      if Float.is_finite v then int_of_float v else d
    in
    let str name d =
      match Option.bind (Json.member name j) Json.to_str with
      | Some v -> v
      | None -> d
    in
    let strs name =
      match Option.bind (Json.member name j) Json.to_list with
      | Some l -> List.filter_map Json.to_str l
      | None -> []
    in
    let stage_table name =
      match Json.member name j with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (n, v) -> Option.map (fun s -> (n, s)) (Json.to_float v))
          fields
      | Some _ | None -> []
    in
    let stage_s = stage_table "stage_s" in
    let style = str "style" "" in
    let bits = int "bits" 0 in
    Ok
      { schema_version = int "schema_version" 0;
        label = str "label" (label ~style ~bits);
        style;
        bits;
        tech_name = str "tech_name" "";
        tech_hash = str "tech_hash" "";
        repeat = max 1 (int "repeat" 1);
        stage_s;
        place_route_s = num "place_route_s" Float.nan;
        stage_alloc_mb = stage_table "stage_alloc_mb";
        alloc_mb_total = num "alloc_mb_total" Float.nan;
        peak_heap_mb = num "peak_heap_mb" Float.nan;
        major_collections = int "major_collections" 0;
        f3db_mhz = num "f3db_mhz" Float.nan;
        max_inl_lsb = num "max_inl_lsb" Float.nan;
        max_dnl_lsb = num "max_dnl_lsb" Float.nan;
        tau_fs = num "tau_fs" Float.nan;
        critical_bit = int "critical_bit" (-1);
        via_cuts = int "via_cuts" 0;
        bends = int "bends" 0;
        wirelength_um = num "wirelength_um" Float.nan;
        area_um2 = num "area_um2" Float.nan;
        verify_rules = List.sort_uniq String.compare (strs "verify_rules");
        lvs_rules = List.sort_uniq String.compare (strs "lvs_rules");
        provenance =
          (match Json.member "provenance" j with
           | Some p -> Provenance.of_json p
           | None -> Provenance.of_json Json.Null) }
  | _ -> Error "QoR record: expected a JSON object"
