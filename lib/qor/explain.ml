module Json = Telemetry.Json

type delay_element = {
  de_label : string;
  de_kind : string;
  de_layer : string;
  de_r_ohm : float;
  de_c_ff : float;
  de_delay_fs : float;
  de_share : float;
}

type inl_element = {
  ie_name : string;
  ie_on : bool;
  ie_systematic_lsb : float;
  ie_random_lsb : float;
  ie_total_lsb : float;
  ie_share : float;
}

type t = {
  style : string;
  bits : int;
  critical_bit : int;
  worst_cell : string;
  delay_total_fs : float;
  tau_fs : float;
  f3db_mhz : float;
  delay_elements : delay_element list;
  inl_code : int;
  inl_lsb : float;
  max_inl_lsb : float;
  inl_elements : inl_element list;
}

let of_result (r : Ccdac.Flow.result) =
  Telemetry.Span.with_ ~name:"qor.explain"
    ~attrs:
      [ ("style", Telemetry.Span.Str (Ccplace.Style.name r.Ccdac.Flow.style));
        ("bits", Telemetry.Span.Int r.Ccdac.Flow.bits) ]
  @@ fun () ->
  let net =
    Extract.Netbuild.build r.Ccdac.Flow.layout ~cap:r.Ccdac.Flow.critical_bit
  in
  let worst_cell, delay_total_fs, parts = Extract.Netbuild.attribution net in
  let share total x = if Float.equal total 0. then 0. else x /. total in
  let delay_elements =
    List.map
      (fun (c : Extract.Netbuild.contribution) ->
         { de_label = c.Extract.Netbuild.nb_label;
           de_kind =
             Extract.Netbuild.part_kind_name c.Extract.Netbuild.nb_kind;
           de_layer = c.Extract.Netbuild.nb_layer;
           de_r_ohm = c.Extract.Netbuild.nb_r_ohm;
           de_c_ff = c.Extract.Netbuild.nb_c_down_ff;
           de_delay_fs = c.Extract.Netbuild.nb_delay_fs;
           de_share = share delay_total_fs c.Extract.Netbuild.nb_delay_fs })
      parts
  in
  let attr =
    Dacmodel.Nonlinearity.attribute r.Ccdac.Flow.tech
      ~cov:r.Ccdac.Flow.covariance ~top_parasitic:
        r.Ccdac.Flow.parasitics.Extract.Parasitics.total_top_cap
      r.Ccdac.Flow.placement
  in
  let inl_lsb = attr.Dacmodel.Nonlinearity.inl_lsb in
  let inl_elements =
    List.map
      (fun (s : Dacmodel.Nonlinearity.inl_share) ->
         { ie_name = Printf.sprintf "C_%d" s.Dacmodel.Nonlinearity.cap;
           ie_on = s.Dacmodel.Nonlinearity.on;
           ie_systematic_lsb = s.Dacmodel.Nonlinearity.systematic_lsb;
           ie_random_lsb = s.Dacmodel.Nonlinearity.random_lsb;
           ie_total_lsb = s.Dacmodel.Nonlinearity.total_lsb;
           ie_share = share inl_lsb s.Dacmodel.Nonlinearity.total_lsb })
      attr.Dacmodel.Nonlinearity.shares
    @ [ { ie_name = "top-plate parasitic";
          ie_on = false;
          ie_systematic_lsb = attr.Dacmodel.Nonlinearity.parasitic_lsb;
          ie_random_lsb = 0.;
          ie_total_lsb = attr.Dacmodel.Nonlinearity.parasitic_lsb;
          ie_share = share inl_lsb attr.Dacmodel.Nonlinearity.parasitic_lsb }
      ]
  in
  if Telemetry.Metrics.enabled () then
    Telemetry.Metrics.set "qor/explain_elements"
      (float_of_int (List.length delay_elements + List.length inl_elements));
  { style = Ccplace.Style.name r.Ccdac.Flow.style;
    bits = r.Ccdac.Flow.bits;
    critical_bit = r.Ccdac.Flow.critical_bit;
    worst_cell =
      Printf.sprintf "cell(%d,%d)" worst_cell.Ccgrid.Cell.row
        worst_cell.Ccgrid.Cell.col;
    delay_total_fs;
    tau_fs = r.Ccdac.Flow.tau_fs;
    f3db_mhz = r.Ccdac.Flow.f3db_mhz;
    delay_elements;
    inl_code = attr.Dacmodel.Nonlinearity.code;
    inl_lsb;
    max_inl_lsb = r.Ccdac.Flow.max_inl;
    inl_elements }

let text ?(top = 10) t =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "%s %d-bit — per-element attribution\n\n" t.style t.bits;
  add "worst-bit Elmore delay: C_%d, driver -> %s, %.1f fs (tau %.1f fs, \
       f3dB %.0f MHz)\n"
    t.critical_bit t.worst_cell t.delay_total_fs t.tau_fs t.f3db_mhz;
  let ranked =
    List.stable_sort
      (fun a b -> Float.compare (Float.abs b.de_share) (Float.abs a.de_share))
      t.delay_elements
  in
  let shown = List.filteri (fun i _ -> i < top) ranked in
  add "  %-28s %-5s %-5s %10s %10s %10s %7s\n" "element" "kind" "layer"
    "R (ohm)" "C (fF)" "delay (fs)" "share";
  List.iter
    (fun e ->
       add "  %-28s %-5s %-5s %10.3f %10.3f %10.3f %6.1f%%\n" e.de_label
         e.de_kind e.de_layer e.de_r_ohm e.de_c_ff e.de_delay_fs
         (100. *. e.de_share))
    shown;
  let rest = List.length ranked - List.length shown in
  if rest > 0 then begin
    let rest_fs =
      List.fold_left
        (fun acc e -> acc +. e.de_delay_fs)
        0.
        (List.filteri (fun i _ -> i >= top) ranked)
    in
    add "  ... %d more elements, %.3f fs\n" rest rest_fs
  end;
  add "\nworst-code INL: code %d, %+.4f LSB (run max |INL| %.4f LSB)\n"
    t.inl_code t.inl_lsb t.max_inl_lsb;
  add "  %-22s %-3s %12s %12s %12s %7s\n" "element" "on" "sys (LSB)"
    "rand (LSB)" "total (LSB)" "share";
  List.iter
    (fun e ->
       add "  %-22s %-3s %+12.5f %+12.5f %+12.5f %6.1f%%\n" e.ie_name
         (if e.ie_on then "on" else "-")
         e.ie_systematic_lsb e.ie_random_lsb e.ie_total_lsb
         (100. *. e.ie_share))
    (List.stable_sort
       (fun a b ->
          Float.compare (Float.abs b.ie_total_lsb) (Float.abs a.ie_total_lsb))
       t.inl_elements);
  Buffer.contents b

let to_json t =
  Json.Obj
    [ ("version", Json.Num 1.);
      ("style", Json.Str t.style);
      ("bits", Json.Num (float_of_int t.bits));
      ("critical_bit", Json.Num (float_of_int t.critical_bit));
      ("worst_cell", Json.Str t.worst_cell);
      ("delay_total_fs", Json.Num t.delay_total_fs);
      ("tau_fs", Json.Num t.tau_fs);
      ("f3db_mhz", Json.Num t.f3db_mhz);
      ( "delay_elements",
        Json.Arr
          (List.map
             (fun e ->
                Json.Obj
                  [ ("label", Json.Str e.de_label);
                    ("kind", Json.Str e.de_kind);
                    ("layer", Json.Str e.de_layer);
                    ("r_ohm", Json.Num e.de_r_ohm);
                    ("c_ff", Json.Num e.de_c_ff);
                    ("delay_fs", Json.Num e.de_delay_fs);
                    ("share", Json.Num e.de_share) ])
             t.delay_elements) );
      ("inl_code", Json.Num (float_of_int t.inl_code));
      ("inl_lsb", Json.Num t.inl_lsb);
      ("max_inl_lsb", Json.Num t.max_inl_lsb);
      ( "inl_elements",
        Json.Arr
          (List.map
             (fun e ->
                Json.Obj
                  [ ("name", Json.Str e.ie_name);
                    ("on", Json.Bool e.ie_on);
                    ("systematic_lsb", Json.Num e.ie_systematic_lsb);
                    ("random_lsb", Json.Num e.ie_random_lsb);
                    ("total_lsb", Json.Num e.ie_total_lsb);
                    ("share", Json.Num e.ie_share) ])
             t.inl_elements) ) ]
