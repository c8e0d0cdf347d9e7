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
   table serves the INL and the attribution. *)
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

(* INL per code, with +3 sigma added to both C_ON and C_T as the paper's
   equation after (14) states. *)
let inl_codes tech (placement : Ccgrid.Placement.t) ~sys ~sums ~sigma_t
    ~top_parasitic =
  let bits = placement.Ccgrid.Placement.bits in
  let vref = 1.0 in
  let m = float_of_int placement.Ccgrid.Placement.unit_multiplier in
  let cu = tech.Tech.Process.unit_cap in
  let codes = Transfer.num_codes ~bits in
  let c_t = float_of_int codes *. m *. cu in
  let sys_total = Array.fold_left ( +. ) 0. sys in
  let delta_t = sys_total +. (3. *. sigma_t) +. top_parasitic in
  let lsb = Transfer.lsb ~bits ~vref in
  Array.init codes
    (fun code ->
       if code = 0 then 0.
       else begin
         let c_on = float_of_int code *. m *. cu in
         let delta_on = sums.sys_on.(code) +. (3. *. sums.sigma_on.(code)) in
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
    ~top_parasitic =
  let bits = placement.Ccgrid.Placement.bits in
  let vref = 1.0 in
  let m = float_of_int placement.Ccgrid.Placement.unit_multiplier in
  let cu = tech.Tech.Process.unit_cap in
  let codes = Transfer.num_codes ~bits in
  let c_t = float_of_int codes *. m *. cu in
  let sys_total = Array.fold_left ( +. ) 0. sys in
  let delta_t = sys_total +. (3. *. sigma_t) +. top_parasitic in
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
      *. ((m *. cu) +. !sys_diff +. (3. *. sigma_diff))
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

(* Every capacitor's unit cells as lattice points, row-major: the
   doubled centres of Ccgrid.Cell.centered, without a float per cell. *)
let lattice_points (placement : Ccgrid.Placement.t) =
  let { Ccgrid.Placement.rows; cols; assign; _ } = placement in
  let caps = Ccgrid.Placement.num_caps placement in
  let centre ~row ~col = Ccgrid.Cell.centered ~rows ~cols (Ccgrid.Cell.make ~row ~col) in
  let ys = Array.init rows (fun row -> fst (centre ~row ~col:0)) in
  let xs = Array.init cols (fun col -> snd (centre ~row:0 ~col)) in
  let count = Array.make caps 0 in
  Array.iter
    (Array.iter (fun id -> if id >= 0 && id < caps then count.(id) <- count.(id) + 1))
    assign;
  let points = Array.map (fun n -> Array.make n 0) count in
  Array.fill count 0 caps 0;
  for row = 0 to rows - 1 do
    let ids = assign.(row) in
    for col = 0 to cols - 1 do
      let id = ids.(col) in
      if id >= 0 && id < caps then begin
        points.(id).(count.(id)) <- Capmodel.Lattice.point ~y:ys.(row) ~x:xs.(col);
        count.(id) <- count.(id) + 1
      end
    done
  done;
  points

let covariance tech (placement : Ccgrid.Placement.t) =
  let bits = placement.Ccgrid.Placement.bits in
  Telemetry.Span.with_ ~name:"analyse.covariance"
    ~attrs:[ ("bits", Telemetry.Span.Int bits) ]
  @@ fun () ->
  let cov = Capmodel.Covariance.of_points tech (lattice_points placement) in
  Telemetry.Metrics.set "analyse/covariance_points"
    (float_of_int (Capmodel.Covariance.transform_points cov));
  Telemetry.Metrics.set "analyse/covariance_lookups"
    (float_of_int (Capmodel.Covariance.direct_lookups cov));
  cov

let systematic_shifts tech ?theta (placement : Ccgrid.Placement.t) =
  let xs, ys = Ccgrid.Placement.axes tech placement in
  let values =
    Capmodel.Gradient.grid_values tech ?theta ~xs ~ys
      ~caps:(Array.length placement.Ccgrid.Placement.counts)
      placement.Ccgrid.Placement.assign
  in
  Array.mapi
    (fun k v ->
       v -. (float_of_int placement.Ccgrid.Placement.counts.(k) *. tech.Tech.Process.unit_cap))
    values

(* Systematic shifts, covariance matrix, and total-capacitance sigma of a
   placement — the model inputs shared by [analyze] and [attribute].
   The gradient's shifts and the covariance come from the grid; the cell
   positions are built only for a profile's shifts. *)
let model_inputs tech ?theta ?profile ?cov (placement : Ccgrid.Placement.t) =
  let bits = placement.Ccgrid.Placement.bits in
  let sys =
    match profile with
    | Some p ->
      Array.map (Capmodel.Profile.systematic_shift tech p)
        (Ccgrid.Placement.positions_by_cap tech placement)
    | None -> systematic_shifts tech ?theta placement
  in
  let cov = match cov with Some cov -> cov | None -> covariance tech placement in
  let all_caps = List.init (bits + 1) (fun k -> k) in
  let sigma_t = Capmodel.Covariance.sigma_of_subset cov all_caps in
  (sys, cov, sigma_t)

let analyze tech ?theta ?profile ?cov ?(top_parasitic = 0.) placement =
  let bits = placement.Ccgrid.Placement.bits in
  Telemetry.Span.with_ ~name:"analyse.nonlinearity"
    ~attrs:[ ("bits", Telemetry.Span.Int bits) ]
  @@ fun () ->
  Telemetry.Metrics.set "analyse/codes" (float_of_int (Transfer.num_codes ~bits));
  let sys, cov, sigma_t = model_inputs tech ?theta ?profile ?cov placement in
  let sums = on_sums ~bits ~sys ~cov in
  let inl = inl_codes tech placement ~sys ~sums ~sigma_t ~top_parasitic in
  let dnl = dnl_codes tech placement ~sys ~cov ~sigma_t ~top_parasitic in
  { inl; dnl; max_abs_inl = max_abs inl; max_abs_dnl = max_abs dnl; sigma_t }

(* --- per-capacitor INL attribution (ccgen explain) ---

   At the worst code, with d_on = sys_on + 3 sigma_on and
   d_t = sys_total + 3 sigma_t + C_top,

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
  let inl = inl_codes tech placement ~sys ~sums ~sigma_t ~top_parasitic in
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
