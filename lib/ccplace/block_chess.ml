open Ccgrid

let default_core_bits ~bits = Int.max 1 (Int.min (bits - 2) (bits - 1))

let granularities ~bits =
  let msb_cells = 1 lsl (bits - 1) in
  List.filter (fun g -> 2 * g <= msb_cells) [ 1; 2; 4; 8 ]

let style_name ~core_bits ~granularity =
  Printf.sprintf "block-chess(core=%d,g=%d)" core_bits granularity

(* Core cells: the [core_units] cells nearest the centre, collected in
   mirrored pairs along the spiral order so the core is centred and
   mirror-symmetric.  Returned in row-major order. *)
let collect_core b order core_units =
  let cols = Builder.cols b in
  let n = Builder.rows b * cols in
  let in_core = Array.make n false and size = ref 0 in
  let index (c : Cell.t) = (c.Cell.row * cols) + c.Cell.col in
  let add_pair c =
    let m = Builder.mirror b c in
    if Builder.is_free b c && (not in_core.(index c)) && not (Cell.equal c m)
    then begin
      in_core.(index c) <- true;
      in_core.(index m) <- true;
      size := !size + 2
    end
  in
  List.iter (fun c -> if !size < core_units then add_pair c) order;
  if !size < core_units then
    invalid_arg "Block_chess: not enough cells for the core";
  let core = ref [] in
  for i = n - 1 downto 0 do
    if in_core.(i) then core := Cell.make ~row:(i / cols) ~col:(i mod cols) :: !core
  done;
  !core

let place ~bits ?core_bits ?granularity () =
  Weights.check_bits bits;
  let core_bits = Option.value core_bits ~default:(default_core_bits ~bits) in
  let granularity = Option.value granularity ~default:2 in
  if core_bits < 1 || core_bits > bits - 1 then
    invalid_arg "Block_chess.place: core_bits must be in [1, bits-1]";
  if granularity < 1 then invalid_arg "Block_chess.place: granularity >= 1";
  let counts = Weights.unit_counts ~bits in
  let total = Weights.total_units ~bits in
  let { Sizing.rows; cols; dummies } = Sizing.compute ~total_units:total in
  let b = Builder.make ~bits ~rows ~cols ~unit_multiplier:1 ~counts in
  if dummies mod 2 = 1 then Builder.reserve_center_dummy b;
  let order = Cell.spiral_order ~rows ~cols in
  let core_units = 1 lsl core_bits in
  let core = collect_core b order core_units in
  (* --- inner core: chessboard of C_core_bits .. C_0 --- *)
  let core_list = Builder.cursor (Chessboard.sort_by_rank ~rows ~cols core) in
  for k = core_bits downto 2 do
    while Builder.remaining b k > 1 do
      match Builder.first_free_in b core_list with
      | None -> invalid_arg "Block_chess.place: core exhausted"
      | Some c -> Builder.assign_pair b c k
    done
  done;
  (match Builder.first_free_in b core_list with
   | None -> invalid_arg "Block_chess.place: no core cells left for C_0/C_1"
   | Some c -> Builder.assign_split_pair b c ~at:1 ~at_mirror:0);
  (* --- outer corridor: blocks of MSB capacitors plus dummies --- *)
  let dummy_budget = ref (dummies - (if dummies mod 2 = 1 then 1 else 0)) in
  let corridor_caps =
    Array.init (bits - core_bits) (fun i ->
        let k = bits - i in
        (k, counts.(k)))
  in
  let items =
    if !dummy_budget > 0 then
      Array.append corridor_caps [| (Placement.dummy, !dummy_budget) |]
    else corridor_caps
  in
  let taken = Array.make (Array.length items) 0 in
  let current = ref None in
  let block_left = ref 0 in
  let cells_left id =
    if id = Placement.dummy then !dummy_budget else Builder.remaining b id
  in
  let pick_next () =
    match Interleave.next items taken with
    | None -> invalid_arg "Block_chess.place: corridor budget exhausted"
    | Some i ->
      let id, _ = items.(i) in
      current := Some (i, id);
      block_left := Int.min (2 * granularity) (cells_left id)
  in
  let assign_corridor_pair c =
    (match !current with
     | Some (_, id) when !block_left >= 2 && cells_left id >= 2 -> ()
     | Some _ | None -> pick_next ());
    match !current with
    | None -> failwith "Block_chess.place: pick_next left no current block"
    | Some (i, id) ->
      if id = Placement.dummy then begin
        Builder.assign_dummy_pair b c;
        dummy_budget := !dummy_budget - 2
      end
      else Builder.assign_pair b c id;
      taken.(i) <- taken.(i) + 2;
      block_left := !block_left - 2
  in
  List.iter (fun c -> if Builder.is_free b c then assign_corridor_pair c) order;
  Builder.finish b ~style_name:(style_name ~core_bits ~granularity)
