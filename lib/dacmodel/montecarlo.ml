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

(* Worst |INL| / |DNL| of one sampled realisation of the capacitor
   shifts, without walking the codes.  With d_k = shift_k + sys_k and
   dT = sum_{k=0..N} d_k + C_top, Eq. 9 gives

     INL(code) = sum over the set bits k of e_k,
     e_k = (2^N d_k - 2^(k-1) dT) / (C_T + dT)   [LSB],

   so the INL is linear in the code bits: its largest magnitude is the
   sum of the positive e_k or of the negative ones, whichever is larger.
   A step from code i-1 to i switches bit t+1 on and bits 1..t off (t
   the trailing zeros of i), so DNL takes the N values
   e_(t+1) - sum_{k<=t} e_k. *)
let evaluate ~bits ~c_t ~top_parasitic ~sys shifts =
  let sum = ref 0. in
  for k = 0 to bits do
    sum := !sum +. (shifts.(k) +. sys.(k))
  done;
  let delta_t = !sum +. top_parasitic in
  let denom = c_t +. delta_t in
  if denom <= 0. then invalid_arg "Montecarlo: non-positive C_T";
  let full = float_of_int (Transfer.num_codes ~bits) in
  let pos = ref 0. and neg = ref 0. and below = ref 0. and dnl = ref 0. in
  for k = 1 to bits do
    let d = shifts.(k) +. sys.(k) in
    let e = ((full *. d) -. Float.ldexp delta_t (k - 1)) /. denom in
    if e > 0. then pos := !pos +. e else neg := !neg +. e;
    dnl := Float.max !dnl (Float.abs (e -. !below));
    below := !below +. e
  done;
  (Float.max !pos (-. !neg), !dnl)

(* Below this many trials the domain pool does not pay: a trial is a few
   microseconds, most of it the substream seeding.  On two cores, two
   domains ran 0.90-1.11x serial speed at 2000-3000 trials and
   1.10-1.16x at 5000 (docs/PARALLEL.md). *)
let min_parallel_trials = 5_000

(* Each trial draws from its own counter-based substream keyed by
   (seed, trial index) — Par.Rng — so trial [i] is a pure function of
   the seed.  That makes the whole distribution bitwise-identical at any
   worker count and in any completion order; the pool only has to keep
   slot order, which it guarantees. *)
let trial_curves tech ?(seed = 0x5eed) ?theta ?cov ?(top_parasitic = 0.) ?jobs
    ~trials placement =
  if trials < 1 then invalid_arg "Montecarlo: trials must be >= 1";
  let bits = placement.Ccgrid.Placement.bits in
  let c_t =
    float_of_int (Transfer.num_codes ~bits)
    *. float_of_int placement.Ccgrid.Placement.unit_multiplier
    *. tech.Tech.Process.unit_cap
  in
  let sys = Nonlinearity.systematic_shifts tech ?theta placement in
  let cov =
    match cov with
    | Some cov -> cov
    | None -> Nonlinearity.covariance tech placement
  in
  let factor = Capmodel.Gauss.factorize cov in
  let jobs = if trials < min_parallel_trials then Some 1 else jobs in
  Par.Pool.map_list_exn ?jobs
    (fun trial ->
       let state = Par.Rng.state ~seed ~index:trial in
       let shifts = Capmodel.Gauss.draw_from factor state in
       evaluate ~bits ~c_t ~top_parasitic ~sys shifts)
    (List.init trials Fun.id)

(* Ceiling nearest-rank: the q-quantile of n samples is the ceil(q n)-th
   smallest (1-based).  Flooring instead biases small-n upper percentiles
   low — with 20 trials the p95 would be the 18th sample, not the 19th.
   The sample is found by selection (Hoare's FIND, median-of-three
   pivots), so the array is reordered, not sorted: a run needs one rank
   of each array, not their whole order. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let rank = int_of_float (Float.ceil (float_of_int n *. q)) in
    let k = Int.max 0 (Int.min (n - 1) (rank - 1)) in
    let swap i j =
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Float.compare a.(mid) a.(!lo) < 0 then swap mid !lo;
      if Float.compare a.(!hi) a.(!lo) < 0 then swap !hi !lo;
      if Float.compare a.(!hi) a.(mid) < 0 then swap !hi mid;
      (* a.(lo) <= pivot <= a.(hi) bound both scans *)
      let pivot = a.(mid) and i = ref !lo and j = ref !hi in
      while !i <= !j do
        while Float.compare a.(!i) pivot < 0 do incr i done;
        while Float.compare pivot a.(!j) < 0 do decr j done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      (* a.(lo..j) <= pivot <= a.(i..hi), and whatever lies between
         equals the pivot *)
      if k <= !j then hi := !j
      else if k >= !i then lo := !i
      else begin
        lo := k;
        hi := k
      end
    done;
    a.(k)
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
  let mean_inl = mean inls and mean_dnl = mean dnls in
  let max_inl = Array.fold_left Float.max 0. inls
  and max_dnl = Array.fold_left Float.max 0. dnls in
  let passes =
    List.fold_left
      (fun n (i, d) -> if i <= bound && d <= bound then n + 1 else n)
      0 curves
  in
  (* the selection reorders the arrays: the order-dependent sums above
     come first *)
  { trials; mean_inl; mean_dnl;
    p95_inl = percentile inls 0.95;
    p95_dnl = percentile dnls 0.95;
    max_inl; max_dnl;
    yield = float_of_int passes /. float_of_int trials }
