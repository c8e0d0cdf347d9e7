type t = {
  trials : int;
  mean_inl : float;
  mean_dnl : float;
  p95_inl : float;
  p95_dnl : float;
  max_inl : float;
  max_dnl : float;
  yield : float;
}

(* Worst |INL| / |DNL| of one sampled realisation of the capacitor shifts. *)
let evaluate ~bits ~m ~cu ~top_parasitic ~sys shifts =
  let vref = 1.0 in
  let codes = Transfer.num_codes ~bits in
  let c_t = float_of_int codes *. m *. cu in
  let delta_k = Array.mapi (fun k s -> s +. sys.(k)) shifts in
  let delta_t =
    Array.fold_left ( +. ) 0. delta_k +. top_parasitic
  in
  let lsb = Transfer.lsb ~bits ~vref in
  let worst_inl = ref 0. and worst_dnl = ref 0. in
  let v_prev = ref 0. in
  for code = 1 to codes - 1 do
    let delta_on = ref 0. in
    for k = 1 to bits do
      if Transfer.bit ~code k then delta_on := !delta_on +. delta_k.(k)
    done;
    let c_on = float_of_int code *. m *. cu in
    let v =
      Transfer.perturbed ~vref ~c_on ~delta_on:!delta_on ~c_t ~delta_t
    in
    let inl = (v -. Transfer.ideal ~bits ~code ~vref) /. lsb in
    let dnl = (v -. !v_prev -. lsb) /. lsb in
    v_prev := v;
    worst_inl := Float.max !worst_inl (Float.abs inl);
    worst_dnl := Float.max !worst_dnl (Float.abs dnl)
  done;
  (!worst_inl, !worst_dnl)

(* Each trial draws from its own counter-based substream keyed by
   (seed, trial index) — Par.Rng — so trial [i] is a pure function of
   the seed.  That makes the whole distribution bitwise-identical at any
   worker count and in any completion order; the pool only has to keep
   slot order, which it guarantees. *)
let trial_curves tech ?(seed = 0x5eed) ?theta ?cov ?(top_parasitic = 0.) ?jobs
    ~trials placement =
  if trials < 1 then invalid_arg "Montecarlo: trials must be >= 1";
  let bits = placement.Ccgrid.Placement.bits in
  let m = float_of_int placement.Ccgrid.Placement.unit_multiplier in
  let cu = tech.Tech.Process.unit_cap in
  let positions = Ccgrid.Placement.positions_by_cap tech placement in
  let sys =
    Array.map (fun ps -> Capmodel.Gradient.systematic_shift tech ?theta ps)
      positions
  in
  let cov =
    match cov with
    | Some cov -> cov
    | None -> Capmodel.Covariance.build tech positions
  in
  let factor = Capmodel.Gauss.factorize cov in
  Par.Pool.map_list_exn ?jobs
    (fun trial ->
       let state = Par.Rng.state ~seed ~index:trial in
       let shifts = Capmodel.Gauss.draw_from factor state in
       evaluate ~bits ~m ~cu ~top_parasitic ~sys shifts)
    (List.init trials Fun.id)

(* Ceiling nearest-rank: the q-quantile of n sorted samples is the
   ceil(q n)-th smallest (1-based).  Flooring instead biases small-n
   upper percentiles low — with 20 trials the p95 would be the 18th
   sample, not the 19th. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let rank = int_of_float (Float.ceil (float_of_int n *. q)) in
    sorted.(Int.max 0 (Int.min (n - 1) (rank - 1)))
  end

let run tech ?seed ?theta ?cov ?top_parasitic ?(bound = 0.5) ?jobs ~trials
    placement =
  Telemetry.Span.with_ ~name:"analyse.montecarlo"
    ~attrs:[ ("trials", Telemetry.Span.Int trials) ]
  @@ fun () ->
  Telemetry.Metrics.incr ~n:trials "analyse/mc_trials_total";
  let curves =
    trial_curves tech ?seed ?theta ?cov ?top_parasitic ?jobs ~trials placement
  in
  let inls = Array.of_list (List.map fst curves) in
  let dnls = Array.of_list (List.map snd curves) in
  let mean a =
    Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)
  in
  let sorted a =
    let b = Array.copy a in
    Array.sort Float.compare b;
    b
  in
  let inls_sorted = sorted inls and dnls_sorted = sorted dnls in
  let passes =
    List.length
      (List.filter (fun (i, d) -> i <= bound && d <= bound) curves)
  in
  { trials;
    mean_inl = mean inls;
    mean_dnl = mean dnls;
    p95_inl = percentile inls_sorted 0.95;
    p95_dnl = percentile dnls_sorted 0.95;
    max_inl = Array.fold_left Float.max 0. inls;
    max_dnl = Array.fold_left Float.max 0. dnls;
    yield = float_of_int passes /. float_of_int trials }
