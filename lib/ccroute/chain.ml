open Ccgrid

type bit_net = {
  b_cap : int;
  b_length : float;
  b_via_junctions : int;
  b_elmore_fs : float;
}

type t = {
  per_bit : bit_net array;
  critical_bit : int;
  critical_elmore_fs : float;
  total_vias : int;
  total_length : float;
}

(* Greedy nearest-neighbour chain over the capacitor's cell positions,
   starting from the cell nearest the driver edge (lowest y, then |x|). *)
let chain_order positions =
  let n = Array.length positions in
  let used = Array.make n false in
  let start =
    let best = ref 0 in
    for i = 1 to n - 1 do
      let key (p : Geom.Point.t) = (p.Geom.Point.y, Float.abs p.Geom.Point.x) in
      if key positions.(i) < key positions.(!best) then best := i
    done;
    !best
  in
  used.(start) <- true;
  let order = ref [ start ] in
  let current = ref start in
  for _ = 2 to n do
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if not used.(i) then
        if !best = -1
           || Geom.Point.manhattan positions.(!current) positions.(i)
              < Geom.Point.manhattan positions.(!current) positions.(!best)
        then best := i
    done;
    used.(!best) <- true;
    order := !best :: !order;
    current := !best
  done;
  Array.of_list (List.rev !order)

let analyze tech ?(p_of_cap = fun _ -> 1) (placement : Placement.t) =
  let m1 = Tech.Process.layer tech Tech.Layer.M1 in
  let pitch_y = Tech.Process.cell_pitch_y tech in
  let driver_y =
    (* just below the bottom row in centred coordinates *)
    -.(float_of_int placement.Placement.rows *. pitch_y /. 2.)
  in
  let analyze_cap cap =
    let p = p_of_cap cap in
    if p < 1 then invalid_arg "Chain.analyze: p_of_cap must be >= 1";
    let rvia = Tech.Parallel.via_resistance tech ~p in
    let positions =
      Array.of_list
        (List.map (Placement.position tech placement)
           (Placement.cells_of placement cap))
    in
    if Array.length positions = 0 then
      invalid_arg "Chain.analyze: capacitor has no cells";
    let order = chain_order positions in
    let tree = Rcnet.Rctree.create () in
    let root = Rcnet.Rctree.add_node tree () in
    let nodes =
      Array.map
        (fun _ -> Rcnet.Rctree.add_node tree ~cap:tech.Tech.Process.unit_cap ())
        order
    in
    let length = ref 0. and junctions = ref 0 in
    (* drop from the driver to the chain start *)
    let start_pos = positions.(order.(0)) in
    let drop_len =
      Float.abs (start_pos.Geom.Point.y -. driver_y)
      +. Float.abs start_pos.Geom.Point.x
    in
    length := !length +. drop_len;
    incr junctions;
    Rcnet.Rctree.wire_edge tree root nodes.(0)
      ~r:(Tech.Parallel.wire_resistance m1 ~length:drop_len ~p +. rvia)
      ~c:(Tech.Parallel.wire_capacitance m1 ~length:drop_len ~p);
    (* hops along the chain: one junction per hop, one more per bend *)
    for i = 1 to Array.length order - 1 do
      let a = positions.(order.(i - 1)) and b = positions.(order.(i)) in
      let len = Geom.Point.manhattan a b in
      let bend =
        Float.abs (a.Geom.Point.x -. b.Geom.Point.x) > 1e-9
        && Float.abs (a.Geom.Point.y -. b.Geom.Point.y) > 1e-9
      in
      let hop_junctions = if bend then 2 else 1 in
      junctions := !junctions + hop_junctions;
      length := !length +. len;
      Rcnet.Rctree.wire_edge tree nodes.(i - 1) nodes.(i)
        ~r:
          (Tech.Parallel.wire_resistance m1 ~length:len ~p
           +. (float_of_int hop_junctions *. rvia))
        ~c:(Tech.Parallel.wire_capacitance m1 ~length:len ~p)
    done;
    let elmore =
      Rcnet.Elmore.max_delay tree ~root ~over:(Array.to_list nodes)
    in
    ({ b_cap = cap; b_length = !length; b_via_junctions = !junctions;
       b_elmore_fs = elmore },
     !junctions * Tech.Parallel.via_count ~p)
  in
  let results = Array.init (placement.Placement.bits + 1) analyze_cap in
  let per_bit = Array.map fst results in
  let total_vias = Array.fold_left (fun acc (_, v) -> acc + v) 0 results in
  let total_length =
    Array.fold_left (fun acc b -> acc +. b.b_length) 0. per_bit
  in
  let critical_bit, critical_elmore_fs =
    Array.fold_left
      (fun (kb, best) b ->
         if b.b_elmore_fs > best then (b.b_cap, b.b_elmore_fs) else (kb, best))
      (0, Float.neg_infinity) per_bit
  in
  { per_bit; critical_bit; critical_elmore_fs; total_vias; total_length }

let f3db_mhz t ~bits =
  Ccgrid.Weights.check_bits bits;
  if t.critical_elmore_fs <= 0. then
    invalid_arg "Chain.f3db_mhz: non-positive critical delay";
  let tau_s = t.critical_elmore_fs *. 1e-15 in
  1. /. (2. *. float_of_int (bits + 2) *. Float.log 2. *. tau_s) /. 1e6
