type candidate = {
  unit_cap_ff : float;
  area : float;
  f3db_mhz : float;
  mc : Dacmodel.Montecarlo.t;
}

(* A scaled cell side is drawn on the built-in techs' 1 nm grid: the
   router halves cell pitches, and LVS rejects a coordinate off its
   0.5 nm grid rather than snap it. *)
let whole_nm um = Float.round (um *. 1000.) /. 1000.

let scale_tech (tech : Tech.Process.t) ~unit_cap =
  if unit_cap <= 0. then invalid_arg "Optimize.scale_tech: unit_cap <= 0";
  let ratio = sqrt (unit_cap /. tech.Tech.Process.unit_cap) in
  { tech with
    Tech.Process.unit_cap;
    cell_width = whole_nm (tech.Tech.Process.cell_width *. ratio);
    cell_height = whole_nm (tech.Tech.Process.cell_height *. ratio) }

let evaluate ?(tech = Tech.Process.finfet_12nm) ?(trials = 200) ?(bound = 0.5)
    ?jobs ~bits ~style ~unit_cap () =
  Telemetry.Span.with_ ~name:"optimize.evaluate"
    ~attrs:
      [ ("bits", Telemetry.Span.Int bits);
        ("unit_cap_ff", Telemetry.Span.Float unit_cap) ]
  @@ fun () ->
  let tech = scale_tech tech ~unit_cap in
  let r = Flow.run ~tech ~bits style in
  let mc =
    Dacmodel.Montecarlo.run tech ~trials ~bound ?jobs ~cov:r.Flow.covariance
      ~top_parasitic:r.Flow.parasitics.Extract.Parasitics.total_top_cap
      r.Flow.placement
  in
  { unit_cap_ff = unit_cap; area = r.Flow.area; f3db_mhz = r.Flow.f3db_mhz; mc }

(* Take the first [n] elements (all of them when the list is shorter). *)
let take n xs =
  let rec go n acc = function
    | [] -> List.rev acc
    | _ when n = 0 -> List.rev acc
    | x :: rest -> go (n - 1) (x :: acc) rest
  in
  go n [] xs

let drop n xs =
  let rec go n = function
    | rest when n = 0 -> rest
    | [] -> []
    | _ :: rest -> go (n - 1) rest
  in
  go n xs

(* Speculative sizing: evaluate [jobs] candidates at a time in parallel,
   then scan the chunk in ascending order and stop at the first that
   meets the yield target.  Any speculative work past the winner is
   discarded — the returned trace is truncated at the winner — so the
   (answer, trace) pair is byte-identical to the serial walk at every
   [jobs] value.  Each candidate's Monte-Carlo runs serially inside its
   task (the pool is already saturated across candidates). *)
let minimum_unit_cap ?tech ?trials ?bound ?(target_yield = 0.99) ?jobs ~bits
    ~style candidates =
  if target_yield < 0. || target_yield > 1. then
    invalid_arg "Optimize.minimum_unit_cap: target_yield must be in [0, 1]";
  Telemetry.Span.with_ ~name:"optimize.sizing"
    ~attrs:[ ("bits", Telemetry.Span.Int bits) ]
  @@ fun () ->
  let jobs = Par.Jobs.resolve jobs in
  let eval unit_cap =
    evaluate ?tech ?trials ?bound ~jobs:1 ~bits ~style ~unit_cap ()
  in
  let passes c = c.mc.Dacmodel.Montecarlo.yield >= target_yield in
  let rec scan_chunk trace = function
    | [] -> None
    | c :: rest ->
      let trace = c :: trace in
      if passes c then Some (Some c, List.rev trace)
      else scan_chunk trace rest
  and walk trace = function
    | [] -> (None, List.rev trace)
    | pending ->
      let chunk = take jobs pending in
      let evaluated = Par.Pool.map_list_exn ~jobs eval chunk in
      (match scan_chunk trace evaluated with
       | Some result -> result
       | None ->
         walk (List.rev_append evaluated trace) (drop jobs pending))
  in
  walk [] (List.sort Float.compare candidates)
