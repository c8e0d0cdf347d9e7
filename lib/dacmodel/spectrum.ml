type t = {
  sndr_db : float;
  sfdr_db : float;
  thd_db : float;
  enob : float;
  signal_bin : int;
  spectrum_db : float array;
}

let ideal_sndr_db ~bits = (6.02 *. float_of_int bits) +. 1.76

let db_floor = -200.

let db ratio = if ratio <= 0. then db_floor else 10. *. Float.log10 ratio

(* fold a harmonic bin back into the one-sided spectrum *)
let alias ~samples bin =
  let b = bin mod samples in
  let b = if b < 0 then b + samples else b in
  if b > samples / 2 then samples - b else b

let of_curve ~bits ~vout ?(samples = 4096) ?(cycles = 63) () =
  Ccgrid.Weights.check_bits bits;
  let codes = 1 lsl bits in
  if Array.length vout <> codes then
    invalid_arg "Spectrum.of_curve: vout length must be 2^bits";
  if not (Capmodel.Fft.is_power_of_two samples) then
    invalid_arg "Spectrum.of_curve: samples must be a power of two";
  if cycles < 1 || cycles mod 2 = 0 || cycles >= samples / 2 then
    invalid_arg "Spectrum.of_curve: cycles must be odd and < samples/2";
  (* reconstruct a coherently-sampled full-swing sine through the DAC *)
  let re =
    Array.init samples (fun i ->
        let phase =
          2. *. Float.pi *. float_of_int cycles *. float_of_int i
          /. float_of_int samples
        in
        let x = (sin phase +. 1.) /. 2. in
        let code =
          Int.max 0
            (Int.min (codes - 1)
               (int_of_float (Float.round (x *. float_of_int (codes - 1)))))
        in
        vout.(code))
  in
  let mean = Array.fold_left ( +. ) 0. re /. float_of_int samples in
  let re = Array.map (fun v -> v -. mean) re in
  let im = Array.make samples 0. in
  Capmodel.Fft.fft ~re ~im;
  let ps = Capmodel.Fft.power_spectrum ~re ~im in
  let half = samples / 2 in
  let signal_bin = cycles in
  let p_signal = ps.(signal_bin) in
  let p_noise_dist = ref 0. in
  for k = 1 to half do
    if k <> signal_bin then p_noise_dist := !p_noise_dist +. ps.(k)
  done;
  let worst_spur = ref 0. in
  for k = 1 to half do
    if k <> signal_bin && ps.(k) > !worst_spur then worst_spur := ps.(k)
  done;
  let p_harmonics = ref 0. in
  for h = 2 to 6 do
    let b = alias ~samples (h * cycles) in
    if b >= 1 && b <= half && b <> signal_bin then
      p_harmonics := !p_harmonics +. ps.(b)
  done;
  let sndr_db = db (p_signal /. Float.max 1e-300 !p_noise_dist) in
  let sfdr_db = db (p_signal /. Float.max 1e-300 !worst_spur) in
  let thd_db = db (!p_harmonics /. Float.max 1e-300 p_signal) in
  { sndr_db;
    sfdr_db;
    thd_db;
    enob = (sndr_db -. 1.76) /. 6.02;
    signal_bin;
    spectrum_db =
      Array.map (fun p -> db (p /. Float.max 1e-300 p_signal)) ps }

let analyze tech ?theta ?sample ?samples placement =
  let bits = placement.Ccgrid.Placement.bits in
  Telemetry.Span.with_ ~name:"analyse.spectrum"
    ~attrs:[ ("bits", Telemetry.Span.Int bits) ]
  @@ fun () ->
  let caps = Sar.capacitor_values tech ?theta ?sample placement in
  let c_t = Array.fold_left ( +. ) 0. caps in
  let vout =
    Array.init (1 lsl bits) (fun code ->
        let c_on = ref 0. in
        for k = 1 to bits do
          if Transfer.bit ~code k then c_on := !c_on +. caps.(k)
        done;
        !c_on /. c_t)
  in
  of_curve ~bits ~vout ?samples ()
