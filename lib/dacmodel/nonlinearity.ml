type sign_mode =
  | Paper
  | Worst_case

type t = {
  inl : float array;
  dnl : float array;
  max_abs_inl : float;
  max_abs_dnl : float;
  sigma_t : float;
}

let max_abs a = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. a

(* Per-code sums over the switched-on capacitors C_1..C_N (C_0 is always
   grounded), built by a subset recurrence rather than a scan of each
   code's bits.  For a code c with top bit h (capacitor C_h) and
   c' = c - 2^(h-1):

     var(c)    = var(c') + K_hh + 2 r_h(c'),   r_h(c') = sum_{j in c'} K_hj
     sys_on(c) = sys_on(c') + sys_h

   where K is the Eq. 6 covariance; r_h obeys the same recurrence over
   the codes below 2^(h-1), so the table costs O(2^N) additions.
   [sigma_on.(c)] is the sigma of C_ON(c)'s random shift (Eq. 13).  One
   table serves every sign combination and the attribution. *)
type on_sums = {
  sigma_on : float array;
  sys_on : float array;
}

let on_sums ~bits ~sys ~cov =
  let codes = Transfer.num_codes ~bits in
  let var = Array.make codes 0. and sys_on = Array.make codes 0. in
  let r = Array.make (codes / 2) 0. in
  for h = 1 to bits do
    let top = 1 lsl (h - 1) in
    for g = 1 to h - 1 do
      let low = 1 lsl (g - 1) in
      let k_hg = Capmodel.Covariance.covariance cov h g in
      for c = 0 to low - 1 do
        r.(low + c) <- r.(c) +. k_hg
      done
    done;
    let k_hh = Capmodel.Covariance.covariance cov h h in
    for c = 0 to top - 1 do
      var.(top + c) <- var.(c) +. k_hh +. (2. *. r.(c));
      sys_on.(top + c) <- sys_on.(c) +. sys.(h)
    done
  done;
  (* numerical noise can push a tiny variance below zero *)
  { sigma_on = Array.map (fun v -> sqrt (Float.max 0. v)) var; sys_on }

(* INL per code for one global sign assignment of the +-3 sigma points. *)
let inl_codes tech (placement : Ccgrid.Placement.t) ~sys ~sums ~sigma_t
    ~top_parasitic ~s_on ~s_t =
  let bits = placement.Ccgrid.Placement.bits in
  let vref = 1.0 in
  let m = float_of_int placement.Ccgrid.Placement.unit_multiplier in
  let cu = tech.Tech.Process.unit_cap in
  let codes = Transfer.num_codes ~bits in
  let c_t = float_of_int codes *. m *. cu in
  let sys_total = Array.fold_left ( +. ) 0. sys in
  let delta_t = sys_total +. (s_t *. 3. *. sigma_t) +. top_parasitic in
  let lsb = Transfer.lsb ~bits ~vref in
  Array.init codes
    (fun code ->
       if code = 0 then 0.
       else begin
         let c_on = float_of_int code *. m *. cu in
         let delta_on =
           sums.sys_on.(code) +. (s_on *. 3. *. sums.sigma_on.(code))
         in
         let v = Transfer.perturbed ~vref ~c_on ~delta_on ~c_t ~delta_t in
         (v -. Transfer.ideal ~bits ~code ~vref) /. lsb
       end)

(* DNL from the differential step: V(i) - V(i-1) =
   V_REF (m C_u + dC_diff) / (C_T + dC_T), with dC_diff the weighted sum
   over the bits that toggle between codes i-1 and i (Eq. 7 with the
   3-sigma point of the {e difference}, which is what a worst-case step
   error means — the common-mode 3-sigma shifts of Eq. 13 cancel in the
   subtraction).

   Between codes i-1 and i exactly the bits 1..t+1 toggle, t being the
   number of trailing zeros of i: bit t+1 switches on and the bits below
   it switch off.  So the step depends on t alone; it is evaluated once,
   at code 2^t, for each of the N values of t. *)
let dnl_codes tech (placement : Ccgrid.Placement.t) ~sys ~cov ~sigma_t
    ~top_parasitic ~s_diff ~s_t =
  let bits = placement.Ccgrid.Placement.bits in
  let vref = 1.0 in
  let m = float_of_int placement.Ccgrid.Placement.unit_multiplier in
  let cu = tech.Tech.Process.unit_cap in
  let codes = Transfer.num_codes ~bits in
  let c_t = float_of_int codes *. m *. cu in
  let sys_total = Array.fold_left ( +. ) 0. sys in
  let delta_t = sys_total +. (s_t *. 3. *. sigma_t) +. top_parasitic in
  let lsb = Transfer.lsb ~bits ~vref in
  let dnl_at code =
    let weights = ref [] and sys_diff = ref 0. in
    for k = 1 to bits do
      let now = Transfer.bit ~code k and before = Transfer.bit ~code:(code - 1) k in
      if now <> before then begin
        let w = if now then 1. else -1. in
        weights := (k, w) :: !weights;
        sys_diff := !sys_diff +. (w *. sys.(k))
      end
    done;
    let sigma_diff = Capmodel.Covariance.sigma_weighted cov !weights in
    let step =
      vref
      *. ((m *. cu) +. !sys_diff +. (s_diff *. 3. *. sigma_diff))
      /. (c_t +. delta_t)
    in
    (step -. lsb) /. lsb
  in
  (* the codes with t trailing zeros are the odd multiples of 2^t *)
  let dnl = Array.make codes 0. in
  for t = 0 to bits - 1 do
    let step_t = dnl_at (1 lsl t) in
    let code = ref (1 lsl t) in
    while !code < codes do
      dnl.(!code) <- step_t;
      code := !code + (2 lsl t)
    done
  done;
  dnl

let covariance tech placement =
  Capmodel.Covariance.build tech (Ccgrid.Placement.positions_by_cap tech placement)

(* Systematic shifts, covariance matrix, and total-capacitance sigma of a
   placement — the model inputs shared by [analyze] and [attribute]. *)
let model_inputs tech ?theta ?profile ?cov (placement : Ccgrid.Placement.t) =
  let bits = placement.Ccgrid.Placement.bits in
  let positions = Ccgrid.Placement.positions_by_cap tech placement in
  let systematic_shift =
    match profile with
    | Some p -> Capmodel.Profile.systematic_shift tech p
    | None -> Capmodel.Gradient.systematic_shift tech ?theta
  in
  let sys = Array.map systematic_shift positions in
  let cov =
    match cov with
    | Some cov -> cov
    | None -> Capmodel.Covariance.build tech positions
  in
  let all_caps = List.init (bits + 1) (fun k -> k) in
  let sigma_t = Capmodel.Covariance.sigma_of_subset cov all_caps in
  (sys, cov, sigma_t)

let analyze tech ?theta ?profile ?cov ?(sign_mode = Paper) ?(top_parasitic = 0.)
    placement =
  let bits = placement.Ccgrid.Placement.bits in
  Telemetry.Span.with_ ~name:"analyse.nonlinearity"
    ~attrs:[ ("bits", Telemetry.Span.Int bits) ]
  @@ fun () ->
  Telemetry.Metrics.set "analyse/codes" (float_of_int (Transfer.num_codes ~bits));
  let sys, cov, sigma_t = model_inputs tech ?theta ?profile ?cov placement in
  let sums = on_sums ~bits ~sys ~cov in
  let run_inl ~s_on ~s_t =
    inl_codes tech placement ~sys ~sums ~sigma_t ~top_parasitic ~s_on ~s_t
  in
  let run_dnl ~s_diff ~s_t =
    dnl_codes tech placement ~sys ~cov ~sigma_t ~top_parasitic ~s_diff ~s_t
  in
  match sign_mode with
  | Paper ->
    let inl = run_inl ~s_on:1. ~s_t:1. in
    let dnl = run_dnl ~s_diff:1. ~s_t:1. in
    { inl; dnl; max_abs_inl = max_abs inl; max_abs_dnl = max_abs dnl; sigma_t }
  | Worst_case ->
    let combos = [ (1., 1.); (1., -1.); (-1., 1.); (-1., -1.) ] in
    let inls = List.map (fun (s_on, s_t) -> run_inl ~s_on ~s_t) combos in
    let dnls = List.map (fun (s_diff, s_t) -> run_dnl ~s_diff ~s_t) combos in
    let worst arrays = List.fold_left (fun acc a -> Float.max acc (max_abs a)) 0. arrays in
    let inl, dnl =
      match inls, dnls with
      | i :: _, d :: _ -> (i, d)
      | [], _ | _, [] ->
        failwith "Nonlinearity: worst-case combo list is empty"
    in
    { inl; dnl; max_abs_inl = worst inls; max_abs_dnl = worst dnls; sigma_t }

(* --- per-capacitor INL attribution (ccgen explain) ---

   At the worst code, with d_on = sys_on + 3 sigma_on and
   d_t = sys_total + 3 sigma_t + C_top (Paper signs),

     INL * LSB = V_REF (d_on C_T - C_ON d_t) / (C_T (C_T + d_t))

   Both d_on and d_t are sums over capacitors: sys_on and sys_total split
   per capacitor directly, and the sigmas split through covariance row
   sums — sigma_S = sum over k in S of (sum over j in S of Cov(k,j)) /
   sigma_S — which attributes the correlated 3-sigma mass to each
   capacitor in proportion to its covariance with the rest of the subset.
   The top-plate parasitic keeps its own pseudo-share.  The shares sum to
   INL(code) exactly up to float association. *)

type inl_share = {
  cap : int;
  on : bool;
  systematic_lsb : float;
  random_lsb : float;
  total_lsb : float;
}

type attribution = {
  code : int;
  inl_lsb : float;
  shares : inl_share list;
  parasitic_lsb : float;
}

let attribute tech ?theta ?profile ?cov ?(top_parasitic = 0.) placement =
  let bits = placement.Ccgrid.Placement.bits in
  let vref = 1.0 in
  let m = float_of_int placement.Ccgrid.Placement.unit_multiplier in
  let cu = tech.Tech.Process.unit_cap in
  let codes = Transfer.num_codes ~bits in
  let c_t = float_of_int codes *. m *. cu in
  let lsb = Transfer.lsb ~bits ~vref in
  let sys, cov, sigma_t = model_inputs tech ?theta ?profile ?cov placement in
  let sums = on_sums ~bits ~sys ~cov in
  let inl =
    inl_codes tech placement ~sys ~sums ~sigma_t ~top_parasitic ~s_on:1.
      ~s_t:1.
  in
  let code =
    let best = ref 0 in
    Array.iteri
      (fun i x -> if Float.abs x > Float.abs inl.(!best) then best := i)
      inl;
    !best
  in
  let on k = k >= 1 && Transfer.bit ~code k in
  let on_caps = List.filter on (List.init (bits + 1) Fun.id) in
  let sigma_on = sums.sigma_on.(code) in
  let sys_total = Array.fold_left ( +. ) 0. sys in
  let delta_t = sys_total +. (3. *. sigma_t) +. top_parasitic in
  let c_on = float_of_int code *. m *. cu in
  let k_norm = vref /. (c_t *. (c_t +. delta_t) *. lsb) in
  let row_sum subset k =
    List.fold_left
      (fun acc j -> acc +. Capmodel.Covariance.covariance cov k j)
      0. subset
  in
  let all_caps = List.init (bits + 1) Fun.id in
  let shares =
    List.map
      (fun k ->
         let rho_on =
           if on k && sigma_on > 0. then row_sum on_caps k /. sigma_on else 0.
         in
         let rho_t =
           if sigma_t > 0. then row_sum all_caps k /. sigma_t else 0.
         in
         let systematic_lsb =
           k_norm
           *. (((if on k then sys.(k) *. c_t else 0.)) -. (c_on *. sys.(k)))
         in
         let random_lsb =
           k_norm *. ((c_t *. 3. *. rho_on) -. (c_on *. 3. *. rho_t))
         in
         { cap = k; on = on k; systematic_lsb; random_lsb;
           total_lsb = systematic_lsb +. random_lsb })
      all_caps
  in
  let parasitic_lsb = -.k_norm *. c_on *. top_parasitic in
  { code; inl_lsb = inl.(code); shares; parasitic_lsb }
