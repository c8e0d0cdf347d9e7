let buf_table f =
  let buf = Buffer.create 1024 in
  f buf;
  Buffer.contents buf

let method_label (r : Flow.result) = Ccplace.Style.label r.Flow.style

let critical (r : Flow.result) =
  r.Flow.parasitics.Extract.Parasitics.per_bit.(r.Flow.critical_bit)

let table1 rows =
  buf_table (fun buf ->
      Buffer.add_string buf
        "Table I: CC array electrical metrics (Cu = 5 fF)\n";
      Buffer.add_string buf
        (Printf.sprintf "%-5s %-5s %10s %10s %10s %8s %9s %12s %12s\n"
           "bits" "mthd" "sumCTS fF" "sumCw fF" "sumCBB fF" "sumNV"
           "sumL um" "RV kohm" "Rtot kohm");
      List.iter
        (fun (bits, results) ->
           List.iter
             (fun (r : Flow.result) ->
                let p = r.Flow.parasitics in
                let c = critical r in
                Buffer.add_string buf
                  (Printf.sprintf
                     "%-5d %-5s %10.3f %10.2f %10.2f %8d %9.0f %12.4f %12.4f\n"
                     bits (method_label r)
                     p.Extract.Parasitics.total_top_cap
                     p.Extract.Parasitics.total_wire_cap
                     p.Extract.Parasitics.total_coupling_cap
                     p.Extract.Parasitics.total_via_cuts
                     p.Extract.Parasitics.total_wirelength
                     (c.Extract.Parasitics.bm_via_resistance /. 1000.)
                     (Extract.Parasitics.total_resistance c /. 1000.)))
             results;
           Buffer.add_char buf '\n')
        rows)

let table2 rows =
  buf_table (fun buf ->
      Buffer.add_string buf
        "Table II: CC array performance metrics (Cu = 5 fF)\n";
      Buffer.add_string buf
        (Printf.sprintf "%-5s %-5s %12s %10s %10s %12s\n" "bits" "mthd"
           "Area um^2" "|DNL| LSB" "|INL| LSB" "f3dB MHz");
      List.iter
        (fun (bits, results) ->
           List.iter
             (fun (r : Flow.result) ->
                Buffer.add_string buf
                  (Printf.sprintf "%-5d %-5s %12.0f %10.3f %10.3f %12.1f\n"
                     bits (method_label r) r.Flow.area r.Flow.max_dnl
                     r.Flow.max_inl r.Flow.f3db_mhz))
             results;
           Buffer.add_char buf '\n')
        rows)

let table3 rows =
  buf_table (fun buf ->
      Buffer.add_string buf
        "Table III: runtimes of the proposed CC layout algorithms\n";
      Buffer.add_string buf
        (Printf.sprintf "%-7s %12s %12s\n" "bits" "Spiral ms" "BC ms");
      List.iter
        (fun (bits, spiral_s, bc_s) ->
           Buffer.add_string buf
             (Printf.sprintf "%-7d %12.3f %12.3f\n" bits (1e3 *. spiral_s)
                (1e3 *. bc_s)))
        rows)

let fig6a series =
  buf_table (fun buf ->
      Buffer.add_string buf
        "Fig. 6a: f3dB improvement factor vs parallel wires (spiral)\n";
      List.iter
        (fun (bits, points) ->
           let base =
             match points with
             | (_, mhz) :: _ -> mhz
             | [] -> 1.
           in
           Buffer.add_string buf (Printf.sprintf "%d-bit: " bits);
           List.iter
             (fun (k, mhz) ->
                Buffer.add_string buf
                  (Printf.sprintf "k=%d:%.2fx " k
                     (Dacmodel.Speed.improvement_factor ~base_mhz:base ~mhz)))
             points;
           Buffer.add_char buf '\n')
        series)

let fig6b rows =
  buf_table (fun buf ->
      Buffer.add_string buf "Fig. 6b: f3dB normalised to spiral\n";
      List.iter
        (fun (bits, results) ->
           let spiral =
             List.find_opt
               (fun (r : Flow.result) ->
                  Ccplace.Style.equal r.Flow.style Ccplace.Style.Spiral)
               results
           in
           let base =
             match spiral with
             | Some r -> r.Flow.f3db_mhz
             | None -> 1.
           in
           Buffer.add_string buf (Printf.sprintf "%d-bit: " bits);
           List.iter
             (fun (r : Flow.result) ->
                Buffer.add_string buf
                  (Printf.sprintf "%s:%.4f " (method_label r)
                     (r.Flow.f3db_mhz /. base)))
             results;
           Buffer.add_char buf '\n')
        rows)

let summary (r : Flow.result) =
  let p = r.Flow.parasitics in
  let c = critical r in
  Printf.sprintf
    "%s, %d-bit (%dx%d)\n\
    \  area            : %.0f um^2\n\
    \  |INL| / |DNL|   : %.3f / %.3f LSB\n\
    \  f3dB            : %.1f MHz (critical bit C_%d, tau = %.1f ps)\n\
    \  sum C^TS        : %.3f fF\n\
    \  sum C^wire      : %.2f fF\n\
    \  sum C^BB        : %.2f fF\n\
    \  vias / length   : %d cuts / %.0f um\n\
    \  critical R_V/R  : %.1f / %.1f ohm\n\
    \  place+route     : %.4f s\n"
    r.Flow.placement.Ccgrid.Placement.style_name
    r.Flow.bits r.Flow.placement.Ccgrid.Placement.rows
    r.Flow.placement.Ccgrid.Placement.cols r.Flow.area r.Flow.max_inl
    r.Flow.max_dnl r.Flow.f3db_mhz r.Flow.critical_bit (r.Flow.tau_fs /. 1000.)
    p.Extract.Parasitics.total_top_cap p.Extract.Parasitics.total_wire_cap
    p.Extract.Parasitics.total_coupling_cap p.Extract.Parasitics.total_via_cuts
    p.Extract.Parasitics.total_wirelength
    c.Extract.Parasitics.bm_via_resistance
    (Extract.Parasitics.total_resistance c)
    r.Flow.elapsed_place_route_s
