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
let evaluate_into ~bits ~c_t ~top_parasitic ~sys shifts ~inl ~dnl i =
  let sum = ref 0. in
  for k = 0 to bits do
    sum := !sum +. (shifts.(k) +. sys.(k))
  done;
  let delta_t = !sum +. top_parasitic in
  let denom = c_t +. delta_t in
  if denom <= 0. then invalid_arg "Montecarlo: non-positive C_T";
  let full = float_of_int (Transfer.num_codes ~bits) in
  let pos = ref 0. and neg = ref 0. and below = ref 0. and worst = ref 0. in
  for k = 1 to bits do
    let d = shifts.(k) +. sys.(k) in
    let e = ((full *. d) -. Float.ldexp delta_t (k - 1)) /. denom in
    if e > 0. then pos := !pos +. e else neg := !neg +. e;
    worst := Float.max !worst (Float.abs (e -. !below));
    below := !below +. e
  done;
  inl.(i) <- Float.max !pos (-. !neg);
  dnl.(i) <- !worst

let evaluate ~bits ~c_t ~top_parasitic ~sys shifts =
  let inl = [| 0. |] and dnl = [| 0. |] in
  evaluate_into ~bits ~c_t ~top_parasitic ~sys shifts ~inl ~dnl 0;
  (inl.(0), dnl.(0))

(* Box-Muller on successive uniforms, u1 then u2 for each normal;
   u1 = 1 - U lies in (0, 1], which avoids log 0.  This order and
   arithmetic fix every trial's draw, and with it every statistic:
   test_mc pins them to the same draw on [Random.State]. *)
let standard_normals rng ~u z =
  let n = Array.length z in
  if Array.length u <> 2 * n then
    invalid_arg "Montecarlo.standard_normals: u is not twice z";
  Par.Rng.floats rng u;
  for k = 0 to n - 1 do
    let u1 = 1. -. u.(2 * k) in
    let u2 = u.((2 * k) + 1) in
    z.(k) <- sqrt (-2. *. Float.log u1) *. cos (2. *. Float.pi *. u2)
  done

(* Below this many trials the domain pool does not reliably pay.  A
   10-bit trial is about a microsecond: two MD5 digests, an O(N^2) draw
   and nothing else allocated, so a pooled range runs without minor
   collections.  On two cores, two domains won every one of 20 pairs
   from 2000 trials at 8 and 10 bits (1.46-1.62x median), but lost 4 of
   20 at 1000 trials and 8 bits; four domains lose below about 3000
   (docs/PARALLEL.md). *)
let min_parallel_trials = 2_000

(* eight tasks at the threshold, which the pool's four chunks per domain
   spread evenly over two domains *)
let range_trials = 250

(* Trials [first, first + count) on one in-place substream, re-seeded
   per trial with (seed, trial index) — Par.Rng — so trial [i] is a
   pure function of the seed wherever its range starts.  That makes the
   whole distribution bitwise-identical at any worker count and in any
   completion order; the pool only has to keep slot order, which it
   guarantees. *)
let trial_range ~seed ~factor ~bits ~c_t ~top_parasitic ~sys (first, count) =
  let n = Capmodel.Gauss.size factor in
  let rng = Par.Rng.substream ~seed ~index:first in
  let u = Array.make (2 * n) 0. and z = Array.make n 0. in
  let shifts = Array.make n 0. in
  let inl = Array.make count 0. and dnl = Array.make count 0. in
  for i = 0 to count - 1 do
    if i > 0 then Par.Rng.reseed rng ~seed ~index:(first + i);
    standard_normals rng ~u z;
    Capmodel.Gauss.correlate factor z shifts;
    evaluate_into ~bits ~c_t ~top_parasitic ~sys shifts ~inl ~dnl i
  done;
  (inl, dnl)

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
  let range = trial_range ~seed ~factor ~bits ~c_t ~top_parasitic ~sys in
  if trials < min_parallel_trials || Par.Jobs.resolve jobs = 1 then
    range (0, trials)
  else
    let ranges =
      List.init ((trials + range_trials - 1) / range_trials) (fun r ->
          let first = r * range_trials in
          (first, Int.min range_trials (trials - first)))
    in
    let parts = Par.Pool.map_list_exn ?jobs range ranges in
    (Array.concat (List.map fst parts), Array.concat (List.map snd parts))

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
  let inls, dnls =
    trial_curves tech ?seed ?theta ?cov ?top_parasitic ?jobs ~trials placement
  in
  let sum_inl = ref 0. and sum_dnl = ref 0. in
  let max_inl = ref 0. and max_dnl = ref 0. and passes = ref 0 in
  for i = 0 to trials - 1 do
    let inl = inls.(i) and dnl = dnls.(i) in
    sum_inl := !sum_inl +. inl;
    sum_dnl := !sum_dnl +. dnl;
    max_inl := Float.max !max_inl inl;
    max_dnl := Float.max !max_dnl dnl;
    if inl <= bound && dnl <= bound then incr passes
  done;
  let n = float_of_int trials in
  (* the selection reorders the arrays: the order-dependent sums above
     come first *)
  { trials;
    mean_inl = !sum_inl /. n;
    mean_dnl = !sum_dnl /. n;
    p95_inl = percentile inls 0.95;
    p95_dnl = percentile dnls 0.95;
    max_inl = !max_inl;
    max_dnl = !max_dnl;
    yield = float_of_int !passes /. n }
