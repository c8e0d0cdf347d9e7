type t = {
  jobs : int;
  trials : int;
  serial_s : float;
  parallel_s : float;
  speedup : float;
}

(* The Monte-Carlo engine is the pool's heaviest client, so it is the
   speedup probe: run the same (seed, trials) workload at jobs = 1 and at
   the requested count and compare wall time.  The two runs return
   bitwise-identical statistics (the substream determinism contract), so
   the comparison is pure scheduling. *)
let mc_speedup ?(tech = Tech.Process.finfet_12nm) ?(bits = 8)
    ?(style = Ccplace.Style.Spiral)
    ?(trials = 2 * Dacmodel.Montecarlo.min_parallel_trials) ?jobs () =
  let jobs = Par.Jobs.resolve jobs in
  let placement = Ccplace.Style.place ~bits style in
  let time f =
    let t0 = Telemetry.Clock.now_ns () in
    let r = f () in
    (r, Telemetry.Clock.since_s t0)
  in
  let run jobs () =
    Dacmodel.Montecarlo.run tech ~jobs ~trials placement
  in
  (* warm-up amortises first-touch costs out of the comparison *)
  ignore (run 1 ());
  let serial, serial_s = time (run 1) in
  let parallel, parallel_s = time (run jobs) in
  if serial <> parallel then
    invalid_arg "Parbench.mc_speedup: parallel run diverged from serial";
  let speedup = if parallel_s > 0. then serial_s /. parallel_s else 1. in
  { jobs; trials; serial_s; parallel_s; speedup }
