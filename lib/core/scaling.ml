(* Cross-bit-width scaling probe: run the full flow (plus a Monte-Carlo
   stage) over a ladder of resolutions, collect per-stage wall/alloc
   series and the scheduler summary, and fit per-stage log-log power-law
   growth exponents against the unit-cell count.  An exponent near 1 is
   linear in cells, near 2 quadratic — the refactor-target signal the
   memscale ratio tables (bench memscale) could only approximate with a
   single two-point ratio. *)

type point = {
  p_bits : int;
  p_cells : int;                          (* placement rows * cols *)
  p_stage_s : (string * float) list;      (* flow stages + "mc" + "total" *)
  p_stage_alloc_mb : (string * float) list;
  p_sched : Par.Sched.summary;
  p_result : Flow.result;
}

type fit = {
  f_stage : string;
  f_exponent : float;
  f_r2 : float;
}

type t = {
  points : point list;       (* ladder order *)
  fits : fit list;           (* stage order of the first point *)
}

(* Least-squares slope of log y against log x.  Times are floored at a
   nanosecond so a stage fast enough to read 0.0 s never feeds log(0)
   into the regression. *)
let fit_loglog pairs =
  let pts =
    List.filter_map
      (fun (x, y) ->
         if Float.is_nan x || Float.is_nan y || x <= 0. then None
         else Some (Float.log x, Float.log (Float.max y 1e-9)))
      pairs
  in
  let n = List.length pts in
  let distinct_x = List.sort_uniq Float.compare (List.map fst pts) in
  if n < 2 || List.length distinct_x < 2 then None
  else begin
    let nf = float_of_int n in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
    let mx = sx /. nf and my = sy /. nf in
    let sxx, sxy, syy =
      List.fold_left
        (fun (xx, xy, yy) (x, y) ->
           let dx = x -. mx and dy = y -. my in
           (xx +. (dx *. dx), xy +. (dx *. dy), yy +. (dy *. dy)))
        (0., 0., 0.) pts
    in
    let slope = sxy /. sxx in
    (* r2 = explained variance; a flat series (syy = 0) is a perfect fit
       of slope 0, not a divide-by-zero. *)
    let r2 = if syy <= 0. then 1. else sxy *. sxy /. (sxx *. syy) in
    Some (slope, r2)
  end

let cells (placement : Ccgrid.Placement.t) =
  placement.Ccgrid.Placement.rows * placement.Ccgrid.Placement.cols

(* One rung of the ladder: full flow + Monte-Carlo with GC sampling and
   scheduler recording on.  Memory sampling is forced on (the alloc
   series is half the point); scheduler recording is only observed here —
   the caller decides whether it is enabled (ccgen scale turns it on). *)
let probe ~tech ~style_of_bits ~trials ~seed ?jobs bits =
  let style = style_of_bits bits in
  let (r, mc_s, mc_mb), batches =
    Par.Sched.collect (fun () ->
        Telemetry.Memory.with_enabled true (fun () ->
            let r = Flow.run ~tech ~bits style in
            let s = Telemetry.Memory.start () in
            let t0 = Telemetry.Clock.now_ns () in
            let (_ : Dacmodel.Montecarlo.t) =
              Dacmodel.Montecarlo.run tech ~seed ?jobs ~trials
                ~cov:r.Flow.covariance r.Flow.placement
            in
            let mc_s = Telemetry.Clock.since_s t0 in
            let mc_mb =
              match s with
              | Some s ->
                Telemetry.Memory.allocated_mb (Telemetry.Memory.finish s)
              | None -> Float.nan
            in
            (r, mc_s, mc_mb)))
  in
  let tl = r.Flow.telemetry in
  let stage_s =
    tl.Telemetry.Summary.stages
    @ [ ("mc", mc_s); ("total", tl.Telemetry.Summary.total_s +. mc_s) ]
  in
  let stage_alloc_mb =
    List.map
      (fun (name, d) -> (name, Telemetry.Memory.allocated_mb d))
      tl.Telemetry.Summary.mem_stages
    @ [ ("mc", mc_mb);
        ( "total",
          match tl.Telemetry.Summary.mem_total with
          | Some d -> Telemetry.Memory.allocated_mb d +. mc_mb
          | None -> Float.nan ) ]
  in
  { p_bits = bits;
    p_cells = cells r.Flow.placement;
    p_stage_s = stage_s;
    p_stage_alloc_mb = stage_alloc_mb;
    p_sched = Par.Sched.summarize batches;
    p_result = r }

let fits_of_points points =
  match points with
  | [] -> []
  | first :: _ ->
    List.filter_map
      (fun (stage, _) ->
         let pairs =
           List.map
             (fun p ->
                ( float_of_int p.p_cells,
                  Option.value ~default:Float.nan
                    (List.assoc_opt stage p.p_stage_s) ))
             points
         in
         match fit_loglog pairs with
         | None -> None
         | Some (exponent, r2) ->
           Some { f_stage = stage; f_exponent = exponent; f_r2 = r2 })
      first.p_stage_s

let default_style_of_bits _ = Ccplace.Style.Spiral

let run ?(tech = Tech.Process.finfet_12nm)
    ?(style_of_bits = default_style_of_bits) ?(trials = 100) ?(seed = 1)
    ?jobs bits_list =
  if bits_list = [] then invalid_arg "Scaling.run: empty bit-width ladder";
  let points =
    List.map (probe ~tech ~style_of_bits ~trials ~seed ?jobs) bits_list
  in
  { points; fits = fits_of_points points }

let exponents t =
  List.map (fun f -> (f.f_stage, f.f_exponent)) t.fits

let sched_totals t =
  (* fold the per-point summaries into one ladder-wide summary; the
     per-batch lists are gone by now, so combine the summary fields
     directly (weighted mean for utilization, max for imbalance) *)
  let open Par.Sched in
  List.fold_left
    (fun acc p ->
       let s = p.p_sched in
       let cap a = a.busy_s /. Float.max a.mean_utilization 1e-9 in
       let capacity =
         (if Float.is_nan acc.mean_utilization then 0. else cap acc)
         +. (if Float.is_nan s.mean_utilization then 0. else cap s)
       in
       let busy = acc.busy_s +. s.busy_s in
       { batches = acc.batches + s.batches;
         chunks = acc.chunks + s.chunks;
         caller_chunks = acc.caller_chunks + s.caller_chunks;
         items = acc.items + s.items;
         wall_s = acc.wall_s +. s.wall_s;
         busy_s = busy;
         caller_blocked_s = acc.caller_blocked_s +. s.caller_blocked_s;
         mean_utilization =
           (if capacity > 0. then Float.min 1. (busy /. capacity)
            else Float.nan);
         worst_imbalance =
           (if Float.is_nan s.worst_imbalance then acc.worst_imbalance
            else if Float.is_nan acc.worst_imbalance then s.worst_imbalance
            else Float.max acc.worst_imbalance s.worst_imbalance) })
    (Par.Sched.summarize []) t.points

let point_to_json p =
  let table kvs =
    Telemetry.Json.Obj
      (List.map (fun (k, v) -> (k, Telemetry.Json.Num v)) kvs)
  in
  Telemetry.Json.Obj
    [ ("bits", Telemetry.Json.Num (float_of_int p.p_bits));
      ("cells", Telemetry.Json.Num (float_of_int p.p_cells));
      ("stage_s", table p.p_stage_s);
      ("stage_alloc_mb", table p.p_stage_alloc_mb);
      ("sched", Par.Sched.summary_to_json p.p_sched);
      ("f3db_mhz", Telemetry.Json.Num p.p_result.Flow.f3db_mhz);
      ("max_inl", Telemetry.Json.Num p.p_result.Flow.max_inl) ]

let fit_to_json f =
  Telemetry.Json.Obj
    [ ("stage", Telemetry.Json.Str f.f_stage);
      ("exponent", Telemetry.Json.Num f.f_exponent);
      ("r2", Telemetry.Json.Num f.f_r2) ]

let to_json t =
  Telemetry.Json.Obj
    [ ("version", Telemetry.Json.Num 1.);
      ("points", Telemetry.Json.Arr (List.map point_to_json t.points));
      ("fits", Telemetry.Json.Arr (List.map fit_to_json t.fits));
      ("sched", Par.Sched.summary_to_json (sched_totals t)) ]

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "%-10s" "stage";
  List.iter
    (fun p -> Format.fprintf ppf " %11s" (Printf.sprintf "b%d ms" p.p_bits))
    t.points;
  Format.fprintf ppf " %9s %6s@," "exponent" "r2";
  List.iter
    (fun f ->
       Format.fprintf ppf "%-10s" f.f_stage;
       List.iter
         (fun p ->
            Format.fprintf ppf " %11.2f"
              (1e3
               *. Option.value ~default:Float.nan
                    (List.assoc_opt f.f_stage p.p_stage_s)))
         t.points;
       Format.fprintf ppf " %9.2f %6.2f@," f.f_exponent f.f_r2)
    t.fits;
  Format.fprintf ppf "cells:    ";
  List.iter
    (fun p -> Format.fprintf ppf " %11d" p.p_cells)
    t.points;
  Format.fprintf ppf "@,sched: %a@]" Par.Sched.pp_summary (sched_totals t)
