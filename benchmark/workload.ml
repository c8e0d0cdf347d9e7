(* The benchmark's four workloads.

   Each is a closed loop with a single client: op i is issued when op
   i-1 has returned.  Untimed ops go through the libraries' public entry
   points (Flow.run, Sweep.row, Montecarlo.run, Flow.place_route).  The
   traced ops of the per-layer run make the same layer calls one at a
   time, each inside a span opened here, so the layers are timed without
   instrumenting the program itself.

   The seed drives the Monte-Carlo seeds of mc_yield and the order in
   which each op of paper_tables and signoff_pnr visits its designs; the
   libraries only see the generated inputs. *)

let tech = Tech.Process.finfet_12nm

type size = {
  label : string;
  large_bits : int;
  table_bits : int list;
  mc_bits : int;
  mc_trials : int;
  pnr_bits : int list;
}

let full =
  { label = "full"; large_bits = 12; table_bits = [ 6; 7; 8; 9; 10 ]; mc_bits = 10;
    mc_trials = 1000; pnr_bits = [ 6; 8; 10; 12 ] }

(* What the [dune runtest] smoke test runs: every workload at 6 bits. *)
let smoke =
  { label = "smoke"; large_bits = 6; table_bits = [ 6 ]; mc_bits = 6; mc_trials = 50;
    pnr_bits = [ 6 ] }

type design = { style : Ccplace.Style.t; bits : int }

let key d = Printf.sprintf "%s@%d" (Ccplace.Style.name d.style) d.bits

let layer name f = Telemetry.Span.with_ ~name:("bench." ^ name) f

(* One design through the layer calls of Flow.run ([~analyse:false]:
   of Flow.place_route ~verify:true), in the same order and with the
   same arguments. *)
type chain = {
  design : design;
  placement : Ccgrid.Placement.t;
  layout : Ccroute.Layout.t;
  lvs : Lvs.Check.stats;
  extracted : (Extract.Parasitics.t * Dacmodel.Nonlinearity.t) option;
}

let run_chain ~analyse d =
  let what = key d in
  let placement =
    layer "ccplace" (fun () -> Ccplace.Style.place ~bits:d.bits d.style)
  in
  let layout =
    layer "ccroute" (fun () ->
        Ccroute.Layout.route tech
          ~p_of_cap:(Ccdac.Flow.default_parallel ~bits:d.bits d.style)
          placement)
  in
  layer "verify" (fun () ->
      Verify.Engine.assert_clean ~what (Verify.Engine.check_artifacts layout));
  let lvs =
    layer "lvs" (fun () ->
        let r = Lvs.Check.run layout in
        Verify.Engine.assert_clean ~what r.diagnostics;
        r.stats)
  in
  let extracted =
    if not analyse then None
    else begin
      let p = layer "extract" (fun () -> Extract.Parasitics.extract layout) in
      let nl =
        layer "dacmodel.analyse" (fun () ->
            Dacmodel.Nonlinearity.analyze tech ~top_parasitic:p.total_top_cap
              placement)
      in
      Some (p, nl)
    end
  in
  { design = d; placement; layout; lvs; extracted }

let chain_summary c =
  let s = Expected.of_layout c.layout in
  match c.extracted with
  | None -> s
  | Some (p, nl) ->
    { s with
      via_cuts = p.total_via_cuts;
      analysis =
        Some
          { f3db_mhz =
              Dacmodel.Speed.f3db_mhz ~bits:c.design.bits
                ~tau_fs:p.critical_elmore_fs;
            max_inl = nl.max_abs_inl;
            max_dnl = nl.max_abs_dnl } }

(* What one traced op did: the designs it pushed through the layers and,
   for mc_yield, the Monte-Carlo placement and trial count. *)
type traced = {
  chains : chain list;
  mc : (Ccgrid.Placement.t * int) option;
}

(* Untraced runs issue every op at jobs=1: on a 2-core machine shared
   with other tenants, pool ops spread 18-26% from run to run, which no
   usable regression bound absorbs.  The pool is measured in the traced
   run instead, by the par.* metrics. *)
type instance = {
  warmup : unit -> unit;  (* op 0, checked, untimed *)
  op : jobs:int -> int -> unit;  (* op i, i >= 1 *)
  traced_op : int -> traced;
}

type t = {
  name : string;
  designs : size -> design list;  (* every design an op touches *)
  prepare : size -> seed:int -> Expected.t -> instance;
}

(* The pool's concurrency where the benchmark uses one: every core, at
   most 4. *)
let pool_jobs () = Int.min 4 (Par.Jobs.auto ())

(* Par.Jobs.default stays pinned at 1 for the whole process, so
   CCDAC_JOBS has no effect and a pool never nests inside another.  An op
   that runs at more jobs passes them to its entry point, or — for
   Flow.run, whose only pool is per-bit extraction — raises the default
   for the duration of the op. *)
let with_default_jobs jobs f =
  Par.Jobs.set_default jobs;
  Fun.protect ~finally:(fun () -> Par.Jobs.set_default 1) f

(* Op i visits the designs in its own permutation, drawn from (seed, i):
   one order per run would make the peak heap depend on the seed (10.5 vs
   11.9 MB for paper_tables), while over many ops the peak settles. *)
let shuffle ~seed ~op xs =
  let a = Array.of_list xs in
  let st = Random.State.make [| seed; op |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let check_flow refs (r : Ccdac.Flow.result) =
  Expected.check_design refs (key { style = r.style; bits = r.bits })
    (Expected.of_flow r)

(* One designer-sized array through the full verified flow: where a
   faster covariance kernel must show. *)
let large_array =
  let design size = { style = Ccplace.Style.Spiral; bits = size.large_bits } in
  { name = "large_array";
    designs = (fun size -> [ design size ]);
    prepare =
      (fun size ~seed:_ refs ->
         let d = design size in
         let op ~jobs _ =
           with_default_jobs jobs (fun () ->
               check_flow refs (Ccdac.Flow.run ~bits:d.bits d.style))
         in
         { warmup = (fun () -> op ~jobs:1 0);
           op;
           traced_op =
             (fun _ -> { chains = [ run_chain ~analyse:true d ]; mc = None }) }) }

let table_designs bits =
  List.map (fun style -> { style; bits })
    (Ccdac.Sweep.paper_methods @ Ccplace.Style.block_family ~bits)

(* The Table I/II matrix: many small designs, where per-design fixed
   costs (verify, LVS, extraction) weigh as much as analysis. *)
let paper_tables =
  { name = "paper_tables";
    designs = (fun size -> List.concat_map table_designs size.table_bits);
    prepare =
      (fun size ~seed refs ->
         let order i = shuffle ~seed ~op:i size.table_bits in
         let op ~jobs i =
           List.iter
             (fun bits -> List.iter (check_flow refs) (Ccdac.Sweep.row ~jobs ~bits ()))
             (order i)
         in
         { warmup = (fun () -> op ~jobs:1 0);
           op;
           traced_op =
             (fun i ->
                { chains =
                    List.concat_map
                      (fun bits -> List.map (run_chain ~analyse:true) (table_designs bits))
                      (order i);
                  mc = None }) }) }

(* Op i of a run with seed s draws Monte-Carlo seed s*10^4 + i; the
   warm-up is op 0. *)
let mc_seed ~seed i = (seed * 10_000) + i

let mc_design size = { style = Ccplace.Style.Spiral; bits = size.mc_bits }

let mc_input size =
  let d = mc_design size in
  Ccdac.Flow.run ~bits:d.bits d.style

let mc_run size (r : Ccdac.Flow.result) ~seed ~jobs i =
  Dacmodel.Montecarlo.run tech ~seed:(mc_seed ~seed i)
    ~top_parasitic:r.parasitics.total_top_cap ~jobs ~trials:size.mc_trials
    r.placement

(* The yield-sizing inner loop: one covariance build, then a trial
   kernel that dominates. *)
let mc_yield =
  { name = "mc_yield";
    designs = (fun size -> [ mc_design size ]);
    prepare =
      (fun size ~seed refs ->
         let r = mc_input size in
         check_flow refs r;
         let trials = size.mc_trials in
         let op ~jobs i =
           Expected.check_mc_sane ~trials (mc_run size r ~seed ~jobs i)
         in
         (* The determinism contract (docs/PARALLEL.md): the statistics
            are bitwise identical at any jobs value. *)
         let warmup () =
           let s = mc_run size r ~seed ~jobs:1 0 in
           Expected.check_mc_identical s (mc_run size r ~seed ~jobs:(pool_jobs ()) 0);
           Expected.check_mc refs ~bits:size.mc_bits ~trials
             ~seed:(mc_seed ~seed 0) s;
           Expected.check_mc_sane ~trials s
         in
         { warmup;
           op;
           traced_op =
             (fun i ->
                layer "dacmodel.mc" (fun () -> op ~jobs:1 i);
                { chains = []; mc = Some (r.placement, trials) }) }) }

let pnr_designs bits =
  List.map (fun style -> { style; bits })
    Ccplace.Style.[ Rowwise; Chessboard; Spiral; block_default ~bits ]

let pnr_all size = List.concat_map pnr_designs size.pnr_bits

(* Table III place and route behind the verify and LVS gates.  It never
   calls the analysis layers: the control on which a covariance change
   must show no change. *)
let signoff_pnr =
  { name = "signoff_pnr";
    designs = pnr_all;
    prepare =
      (fun size ~seed refs ->
         let order i = shuffle ~seed ~op:i (pnr_all size) in
         let op ~jobs:_ i =
           List.iter
             (fun d ->
                let layout, _ =
                  Ccdac.Flow.place_route ~verify:true ~bits:d.bits d.style
                in
                Expected.check_design refs (key d) (Expected.of_layout layout))
             (order i)
         in
         { warmup = (fun () -> op ~jobs:1 0);
           op;
           traced_op =
             (fun i ->
                { chains = List.map (run_chain ~analyse:false) (order i); mc = None }) }) }

let all = [ large_array; paper_tables; mc_yield; signoff_pnr ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
