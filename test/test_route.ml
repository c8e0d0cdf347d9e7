(* Tests for group formation, Algorithm 1 and the routed layout. *)

let tech = Tech.Process.finfet_12nm

let spiral6 = Ccplace.Spiral.place ~bits:6
let chess6 = Ccplace.Chessboard.place ~bits:6

(* group [g]'s cells and tree edges, decoded *)
let cells_of (t : Ccroute.Group.t) g =
  List.init (Ccroute.Group.size t g) (fun i ->
      Ccroute.Group.cell t t.Ccroute.Group.cells.(t.Ccroute.Group.first.(g) + i))

let edges_of (t : Ccroute.Group.t) g =
  let e = t.Ccroute.Group.tree_edges and e0 = Ccroute.Group.edge_first t g in
  List.init (Ccroute.Group.edges t g) (fun k ->
      ( Ccroute.Group.cell t e.(2 * (e0 + k)),
        Ccroute.Group.cell t e.((2 * (e0 + k)) + 1) ))

(* the ids of every group of [t] *)
let ids (t : Ccroute.Group.t) = List.init (Ccroute.Group.count t) Fun.id

(* the ids of capacitor [k]'s groups *)
let ids_of_cap (t : Ccroute.Group.t) k =
  let lo = t.Ccroute.Group.cap_first.(k) in
  List.init (t.Ccroute.Group.cap_first.(k + 1) - lo) (( + ) lo)

(* A table of capacitor 0's groups, one per cell list, on a grid of
   [cols] columns; no tree edges (the groups need not be connected). *)
let table_of_cells ~cols cell_lists =
  let id (c : Ccgrid.Cell.t) = (c.Ccgrid.Cell.row * cols) + c.Ccgrid.Cell.col in
  let groups =
    List.map (fun cells -> Array.of_list (List.sort_uniq Int.compare (List.map id cells)))
      cell_lists
  in
  let n = List.length groups in
  let first = Array.make (n + 1) 0 in
  List.iteri (fun g a -> first.(g + 1) <- first.(g) + Array.length a) groups;
  let span f z = Array.of_list (List.map (Array.fold_left (fun a i -> f a (i mod cols)) z) groups) in
  { Ccroute.Group.cols; cap = Array.make n 0; first; cells = Array.concat groups;
    tree_edges = [||]; col_lo = span Int.min max_int; col_hi = span Int.max min_int;
    cap_first = [| 0; n |] }

(* --- groups --- *)

let test_groups_partition_cells () =
  List.iter
    (fun p ->
       let groups = Ccroute.Group.of_placement p in
       for k = 0 to p.Ccgrid.Placement.bits do
         let group_cells = List.concat_map (cells_of groups) (ids_of_cap groups k) in
         Alcotest.(check int)
           (Printf.sprintf "C_%d partitioned" k)
           p.Ccgrid.Placement.counts.(k)
           (List.length (List.sort_uniq Ccgrid.Cell.compare group_cells))
       done)
    [ spiral6; chess6 ]

let test_groups_are_connected () =
  let groups = Ccroute.Group.of_placement ~mode:Ccroute.Group.Connected spiral6 in
  List.iter
    (fun g ->
       (* tree edges span the group: |E| = |V| - 1 *)
       Alcotest.(check int) "tree edges"
         (Ccroute.Group.size groups g - 1)
         (List.length (edges_of groups g));
       List.iter
         (fun (a, b) ->
            Alcotest.(check bool) "edges adjacent" true (Ccgrid.Cell.adjacent a b))
         (edges_of groups g))
    (ids groups)

let test_chessboard_groups_are_singletons () =
  let groups = Ccroute.Group.of_placement chess6 in
  List.iter
    (fun g ->
       if groups.Ccroute.Group.cap.(g) = 6 then
         Alcotest.(check int) "singleton" 1 (Ccroute.Group.size groups g))
    (ids groups)

let test_group_spans () =
  let groups = Ccroute.Group.of_placement spiral6 in
  List.iter
    (fun g ->
       List.iter
         (fun (c : Ccgrid.Cell.t) ->
            Alcotest.(check bool) "col in span" true
              (c.Ccgrid.Cell.col >= groups.Ccroute.Group.col_lo.(g)
               && c.Ccgrid.Cell.col <= groups.Ccroute.Group.col_hi.(g));
            Alcotest.(check bool) "row in span" true
              (c.Ccgrid.Cell.row >= Ccroute.Group.row_lo groups g
               && c.Ccgrid.Cell.row <= Ccroute.Group.row_hi groups g))
         (cells_of groups g))
    (ids groups)

let test_straight_runs_are_straight () =
  let groups =
    Ccroute.Group.of_placement ~mode:Ccroute.Group.Straight_runs spiral6
  in
  List.iter
    (fun g ->
       let same_row = Ccroute.Group.row_lo groups g = Ccroute.Group.row_hi groups g
       and same_col =
         groups.Ccroute.Group.col_lo.(g) = groups.Ccroute.Group.col_hi.(g)
       in
       Alcotest.(check bool) "row or column" true (same_row || same_col))
    (ids groups)

let test_closest_cells () =
  let t =
    table_of_cells ~cols:10
      [ [ Ccgrid.Cell.make ~row:0 ~col:0; Ccgrid.Cell.make ~row:5 ~col:3 ];
        [ Ccgrid.Cell.make ~row:5 ~col:4; Ccgrid.Cell.make ~row:9 ~col:9 ] ]
  in
  let out = Array.make 2 (-1) in
  Ccroute.Group.closest_cells t 0 1 out;
  Alcotest.(check bool) "closest pair" true
    (Ccgrid.Cell.equal (Ccroute.Group.cell t out.(0)) (Ccgrid.Cell.make ~row:5 ~col:3)
     && Ccgrid.Cell.equal (Ccroute.Group.cell t out.(1)) (Ccgrid.Cell.make ~row:5 ~col:4))

let test_col_span_overlap () =
  (* two one-row groups spanning columns [lo_a, hi_a] and [lo_b, hi_b] *)
  let overlap (lo_a, hi_a) (lo_b, hi_b) =
    let row lo hi = List.init (hi - lo + 1) (fun i -> Ccgrid.Cell.make ~row:0 ~col:(lo + i)) in
    Ccroute.Group.col_span_overlap
      (table_of_cells ~cols:10 [ row lo_a hi_a; row lo_b hi_b ])
      0 1
  in
  Alcotest.(check bool) "overlap" true (overlap (0, 3) (2, 5));
  Alcotest.(check bool) "disjoint" false (overlap (0, 1) (3, 5));
  Alcotest.(check bool) "touching" true (overlap (0, 2) (2, 4))

(* --- plan (Algorithm 1) --- *)

let plan_of p =
  let groups = Ccroute.Group.of_placement p in
  (groups, Ccroute.Plan.make p groups)

let test_every_group_routed () =
  List.iter
    (fun p ->
       let groups, plan = plan_of p in
       Alcotest.(check int) "one route per group" (Ccroute.Group.count groups)
         (Array.length plan.Ccroute.Plan.order);
       Alcotest.(check (list int)) "each group once" (ids groups)
         (List.sort Int.compare (Array.to_list plan.Ccroute.Plan.order)))
    [ spiral6; chess6; Ccplace.Rowwise.place ~bits:8 ]

let test_tracks_count_distinct_caps () =
  let _, plan = plan_of chess6 in
  Array.iteri
    (fun ch caps ->
       Alcotest.(check int)
         (Printf.sprintf "channel %d" ch)
         plan.Ccroute.Plan.tracks_per_channel.(ch)
         (Array.length caps);
       (* one track per capacitor: ids are unique in a channel *)
       let sorted = Array.to_list caps in
       Alcotest.(check int) "unique caps"
         (List.length (List.sort_uniq Int.compare sorted))
         (List.length sorted))
    plan.Ccroute.Plan.track_caps

let test_track_indices_dense () =
  let groups, plan = plan_of spiral6 in
  List.iter
    (fun g ->
       Alcotest.(check bool) "track in range" true
         (plan.Ccroute.Plan.track.(g) >= 0
          && plan.Ccroute.Plan.track.(g)
             < plan.Ccroute.Plan.tracks_per_channel.(plan.Ccroute.Plan.channel.(g))))
    (ids groups)

let test_same_cap_same_channel_same_track () =
  let groups, plan = plan_of chess6 in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun g ->
       let key = (plan.Ccroute.Plan.channel.(g), groups.Ccroute.Group.cap.(g)) in
       match Hashtbl.find_opt seen key with
       | Some track -> Alcotest.(check int) "shared track" track plan.Ccroute.Plan.track.(g)
       | None -> Hashtbl.add seen key plan.Ccroute.Plan.track.(g))
    (ids groups)

let test_attach_is_group_member () =
  List.iter
    (fun p ->
       let groups, plan = plan_of p in
       List.iter
         (fun g ->
            Alcotest.(check bool) "attach in group" true
              (List.exists
                 (Ccgrid.Cell.equal (Ccroute.Group.cell groups plan.Ccroute.Plan.attach.(g)))
                 (cells_of groups g)))
         (ids groups))
    [ spiral6; chess6 ]

let test_channel_in_range () =
  let groups, plan = plan_of chess6 in
  List.iter
    (fun g ->
       Alcotest.(check bool) "channel in range" true
         (plan.Ccroute.Plan.channel.(g) >= 0
          && plan.Ccroute.Plan.channel.(g) <= chess6.Ccgrid.Placement.cols))
    (ids groups)

(* --- layout --- *)

let layout6 = Ccroute.Layout.route tech spiral6
let layout_chess = Ccroute.Layout.route tech chess6

let test_layout_geometry_monotone () =
  let xs = Array.to_list layout6.Ccroute.Layout.col_x in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "col_x increasing" true (increasing xs);
  Alcotest.(check bool) "row_y increasing" true
    (increasing (Array.to_list layout6.Ccroute.Layout.row_y));
  Alcotest.(check bool) "positive size" true
    (layout6.Ccroute.Layout.width > 0. && layout6.Ccroute.Layout.height > 0.)

let test_layout_every_cap_has_net () =
  for k = 0 to 6 do
    let net = Ccroute.Layout.net layout6 k in
    Alcotest.(check bool) "has trunks" true (net.Ccroute.Layout.cn_trunks <> []);
    Alcotest.(check int) "cap id" k net.Ccroute.Layout.cn_cap
  done

let test_layout_one_primary_trunk_per_net () =
  Array.iter
    (fun (net : Ccroute.Layout.capnet) ->
       Alcotest.(check int) "one primary" 1
         (List.length
            (List.filter (fun t -> t.Ccroute.Layout.tk_primary)
               net.Ccroute.Layout.cn_trunks)))
    layout6.Ccroute.Layout.nets

let test_layout_bridge_iff_multiple_trunks () =
  Array.iter
    (fun (net : Ccroute.Layout.capnet) ->
       let trunks = List.length net.Ccroute.Layout.cn_trunks in
       match net.Ccroute.Layout.cn_bridge_y with
       | Some _ -> Alcotest.(check bool) "bridge => >1 trunk" true (trunks >= 2)
       | None -> Alcotest.(check bool) "no bridge => 1 trunk" true (trunks = 1))
    layout_chess.Ccroute.Layout.nets

let test_layout_trunk_extents () =
  Array.iter
    (fun (net : Ccroute.Layout.capnet) ->
       List.iter
         (fun (tk : Ccroute.Layout.trunk) ->
            Alcotest.(check bool) "y_low <= y_high" true
              (tk.Ccroute.Layout.tk_y_low <= tk.Ccroute.Layout.tk_y_high +. 1e-9);
            Array.iter
              (fun g ->
                 let cols = layout6.Ccroute.Layout.placement.Ccgrid.Placement.cols in
                 let y =
                   layout6.Ccroute.Layout.row_y.(
                     layout6.Ccroute.Layout.plan.Ccroute.Plan.attach.(g) / cols)
                 in
                 Alcotest.(check bool) "attach on trunk" true
                   (y >= tk.Ccroute.Layout.tk_y_low -. 1e-9
                    && y <= tk.Ccroute.Layout.tk_y_high +. 1e-9))
              tk.Ccroute.Layout.tk_attaches)
         net.Ccroute.Layout.cn_trunks)
    layout6.Ccroute.Layout.nets

let test_layout_wires_axis_aligned () =
  List.iter
    (fun (w : Ccroute.Layout.wire) ->
       Alcotest.(check bool) "axis aligned" true
         (Float.abs (w.Ccroute.Layout.w_ax -. w.Ccroute.Layout.w_bx) < 1e-9
          || Float.abs (w.Ccroute.Layout.w_ay -. w.Ccroute.Layout.w_by) < 1e-9))
    (Ccroute.Layout.Wires.to_list layout6.Ccroute.Layout.wires
     @ Ccroute.Layout.Wires.to_list layout6.Ccroute.Layout.top_wires)

let test_layout_parallel_policy () =
  let p_of = Ccroute.Layout.msb_parallel ~bits:8 ~p:4 in
  Alcotest.(check int) "MSB" 4 (p_of 8);
  Alcotest.(check int) "MSB-2" 4 (p_of 6);
  Alcotest.(check int) "LSB" 1 (p_of 3);
  let layout =
    Ccroute.Layout.route tech ~p_of_cap:(Ccroute.Layout.msb_parallel ~bits:6 ~p:2)
      spiral6
  in
  Alcotest.(check int) "p recorded" 2 layout.Ccroute.Layout.p_of_cap.(6);
  Alcotest.(check int) "p recorded lsb" 1 layout.Ccroute.Layout.p_of_cap.(2)

let test_layout_rejects_bad_parallel () =
  Alcotest.(check bool) "p=0 rejected" true
    (try ignore (Ccroute.Layout.route tech ~p_of_cap:(fun _ -> 0) spiral6); false
     with Invalid_argument _ -> true)

let test_layout_via_positive_p () =
  List.iter
    (fun (v : Ccroute.Layout.via) ->
       Alcotest.(check bool) "p >= 1" true (v.Ccroute.Layout.v_p >= 1))
    layout6.Ccroute.Layout.vias

let test_layout_top_plate () =
  Alcotest.(check int) "column runs + connector"
    (spiral6.Ccgrid.Placement.cols + 1)
    (Ccroute.Layout.Wires.length layout6.Ccroute.Layout.top_wires);
  Alcotest.(check bool) "positive length" true
    (layout6.Ccroute.Layout.top_length > 0.)

let test_layout_channel_widths_match_tracks () =
  let plan = layout6.Ccroute.Layout.plan in
  Array.iteri
    (fun ch width ->
       if plan.Ccroute.Plan.tracks_per_channel.(ch) = 0 then
         Alcotest.(check (float 1e-9)) "empty channel" 0. width
       else
         Alcotest.(check bool) "used channel has width" true (width > 0.))
    layout6.Ccroute.Layout.channel_width

let test_spiral_fewer_vias_than_chessboard () =
  let count (l : Ccroute.Layout.t) =
    List.fold_left
      (fun acc (v : Ccroute.Layout.via) ->
         acc + Tech.Parallel.via_count ~p:v.Ccroute.Layout.v_p)
      0 l.Ccroute.Layout.vias
  in
  let s = Ccroute.Layout.route tech ~p_of_cap:(fun _ -> 1) spiral6 in
  Alcotest.(check bool) "S fewer vias" true (count s < count layout_chess)

(* --- mst --- *)

let test_mst_triangle () =
  (* triangle 0-1 (1.0), 1-2 (2.0), 0-2 (10.0): MST picks the two cheap edges *)
  let edges = [| (0, 1, 1.0); (1, 2, 2.0); (0, 2, 10.0) |] in
  let tree = Ccroute.Mst.prim ~nodes:3 ~edges in
  Alcotest.(check int) "two edges" 2 (List.length tree);
  Alcotest.(check (float 1e-9)) "cost" 3.0 (Ccroute.Mst.cost ~edges tree)

let test_mst_rejects_disconnected () =
  Alcotest.(check bool) "disconnected" true
    (try ignore (Ccroute.Mst.prim ~nodes:4 ~edges:[| (0, 1, 1.) |]); false
     with Invalid_argument _ -> true)

let test_mst_rejects_negative () =
  Alcotest.(check bool) "negative weight" true
    (try ignore (Ccroute.Mst.prim ~nodes:2 ~edges:[| (0, 1, -1.) |]); false
     with Invalid_argument _ -> true)

let test_grid_mst_closed_form () =
  (* uniform grid with dy < dx: cost = cols (rows-1) dy + sum dx *)
  let rows = 5 and cols = 4 in
  let dx = [| 2.; 3.; 2.5 |] and dy = 1. in
  Alcotest.(check (float 1e-9)) "closed form"
    ((float_of_int cols *. float_of_int (rows - 1) *. dy) +. 7.5)
    (Ccroute.Mst.grid_mst_cost ~rows ~cols ~dx ~dy)

(* the paper's claim (Sec. IV-B5): the column-run top-plate construction
   used by Layout IS the MST of the unit-capacitor adjacency graph *)
let test_topplate_is_mst () =
  List.iter
    (fun (layout : Ccroute.Layout.t) ->
       let rows = layout.Ccroute.Layout.placement.Ccgrid.Placement.rows in
       let cols = layout.Ccroute.Layout.placement.Ccgrid.Placement.cols in
       let dx =
         Array.init (cols - 1) (fun c ->
             layout.Ccroute.Layout.col_x.(c + 1) -. layout.Ccroute.Layout.col_x.(c))
       in
       let dy = Tech.Process.cell_pitch_y tech in
       let optimal = Ccroute.Mst.grid_mst_cost ~rows ~cols ~dx ~dy in
       Alcotest.(check (float 1e-6)) "top plate length = MST cost" optimal
         layout.Ccroute.Layout.top_length)
    [ layout6; layout_chess ]

(* --- differential oracles --- *)

(* Reference group formation: Sec. IV-B2 written directly over a balanced
   cell set.  Each capacitor's cells go into a Set; a BFS starts at the
   set's minimum, and the component is removed with [diff]. *)
module Cellset = Set.Make (Ccgrid.Cell)

let reference_bfs ~rows ~cols available seed =
  let visited = ref (Cellset.singleton seed) in
  let edges = ref [] in
  let q = Queue.create () in
  Queue.add seed q;
  while not (Queue.is_empty q) do
    let c = Queue.pop q in
    let next =
      List.filter
        (fun n -> Cellset.mem n available && not (Cellset.mem n !visited))
        (Ccgrid.Cell.neighbors ~rows ~cols c)
    in
    List.iter
      (fun n ->
         visited := Cellset.add n !visited;
         edges := (c, n) :: !edges;
         Queue.add n q)
      next
  done;
  (!visited, List.rev !edges)

(* A group as the library held it before its cells became id arrays:
   the cells as a row-major list and the BFS tree as (parent, child)
   pairs.  The references build groups in this form; [decode] reads the
   library's into it. *)
type rgroup = {
  r_cap : int;
  r_id : int;
  r_cells : Ccgrid.Cell.t list;
  r_edges : (Ccgrid.Cell.t * Ccgrid.Cell.t) list;
  r_col_lo : int;
  r_col_hi : int;
  r_row_lo : int;
  r_row_hi : int;
}

let decode (t : Ccroute.Group.t) g =
  { r_cap = t.cap.(g); r_id = g; r_cells = cells_of t g; r_edges = edges_of t g;
    r_col_lo = t.col_lo.(g); r_col_hi = t.col_hi.(g);
    r_row_lo = Ccroute.Group.row_lo t g; r_row_hi = Ccroute.Group.row_hi t g }

(* every group of [t], decoded in id order *)
let decode_all t = List.map (decode t) (ids t)

let reference_group ~cap ~id cells tree_edges =
  let cols = List.map (fun (c : Ccgrid.Cell.t) -> c.col) cells
  and rows = List.map (fun (c : Ccgrid.Cell.t) -> c.row) cells in
  { r_cap = cap; r_id = id; r_cells = cells; r_edges = tree_edges;
    r_col_lo = List.fold_left Int.min max_int cols;
    r_col_hi = List.fold_left Int.max min_int cols;
    r_row_lo = List.fold_left Int.min max_int rows;
    r_row_hi = List.fold_left Int.max min_int rows }

(* Maximal straight runs of a component along one orientation, and the
   orientation with fewer runs (columns on a tie). *)
let reference_runs cells =
  let runs major minor =
    let sorted =
      List.sort
        (fun a b ->
           match Int.compare (major a) (major b) with
           | 0 -> Int.compare (minor a) (minor b)
           | c -> c)
        cells
    in
    let finish run acc = if run = [] then acc else List.rev run :: acc in
    let rec walk run acc = function
      | [] -> finish run acc
      | c :: rest -> (
          match run with
          | prev :: _ when major prev = major c && minor c = minor prev + 1 ->
            walk (c :: run) acc rest
          | [] | _ :: _ -> walk [ c ] (finish run acc) rest)
    in
    List.rev (walk [] [] sorted)
  in
  let row (c : Ccgrid.Cell.t) = c.row and col (c : Ccgrid.Cell.t) = c.col in
  let horizontal = runs row col and vertical = runs col row in
  if List.length vertical <= List.length horizontal then vertical else horizontal

let rec chain = function
  | a :: (b :: _ as rest) -> (a, b) :: chain rest
  | [ _ ] | [] -> []

let reference_groups mode (p : Ccgrid.Placement.t) =
  let rows = p.rows and cols = p.cols in
  let next_id = ref 0 and groups = ref [] in
  let emit cap cells tree_edges =
    groups := reference_group ~cap ~id:!next_id cells tree_edges :: !groups;
    incr next_id
  in
  for cap = 0 to p.bits do
    let remaining = ref (Cellset.of_list (Ccgrid.Placement.cells_of p cap)) in
    while not (Cellset.is_empty !remaining) do
      let seed = Cellset.min_elt !remaining in
      let members, tree_edges = reference_bfs ~rows ~cols !remaining seed in
      remaining := Cellset.diff !remaining members;
      let cells = Cellset.elements members in
      match mode with
      | Ccroute.Group.Connected -> emit cap cells tree_edges
      | Ccroute.Group.Straight_runs ->
        List.iter (fun run -> emit cap run (chain run)) (reference_runs cells)
    done
  done;
  List.rev !groups

(* Group.components as it stood before group cells became id arrays, the
   reference for the ids' decoding: the same counting sort and BFS, with
   one Cell.t per cell shared by its group's cell list and tree edges. *)
let parent_components (p : Ccgrid.Placement.t) =
  let rows = p.rows and cols = p.cols in
  let assign = p.assign in
  let caps = p.bits + 1 and n = rows * cols in
  let start = Array.make (caps + 1) 0 in
  Array.iter
    (Array.iter (fun k -> if k >= 0 && k < caps then start.(k + 1) <- start.(k + 1) + 1))
    assign;
  for k = 1 to caps do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let by_cap = Array.make start.(caps) 0 in
  for row = 0 to rows - 1 do
    let line = assign.(row) in
    for col = 0 to cols - 1 do
      let k = line.(col) in
      if k >= 0 && k < caps then begin
        by_cap.(start.(k)) <- (row * cols) + col;
        start.(k) <- start.(k) + 1
      end
    done
  done;
  let label = Array.make n (-1) in
  let cell = Array.make n (Ccgrid.Cell.make ~row:(-1) ~col:(-1)) in
  let queue = Array.make n 0 in
  let tail = ref 0 in
  let visit ~cap ~h j row col =
    if label.(j) < 0 && assign.(row).(col) = cap then begin
      label.(j) <- h;
      cell.(j) <- Ccgrid.Cell.make ~row ~col;
      queue.(!tail) <- j;
      incr tail
    end
  in
  let groups = ref [] and count = ref 0 in
  for s = 0 to Array.length by_cap - 1 do
    let seed = by_cap.(s) in
    if label.(seed) < 0 then begin
      let row = seed / cols and col = seed mod cols in
      let cap = assign.(row).(col) and id = !count in
      let row_lo = ref row and row_hi = ref row in
      let col_lo = ref col and col_hi = ref col in
      label.(seed) <- 0;
      cell.(seed) <- Ccgrid.Cell.make ~row ~col;
      queue.(0) <- seed;
      tail := 1;
      let head = ref 0 in
      while !head < !tail do
        let h = !head in
        let i = queue.(h) in
        incr head;
        let row = i / cols in
        let col = i - (row * cols) in
        if row < !row_lo then row_lo := row;
        if row > !row_hi then row_hi := row;
        if col < !col_lo then col_lo := col;
        if col > !col_hi then col_hi := col;
        if row > 0 then visit ~cap ~h (i - cols) (row - 1) col;
        if row < rows - 1 then visit ~cap ~h (i + cols) (row + 1) col;
        if col > 0 then visit ~cap ~h (i - 1) row (col - 1);
        if col < cols - 1 then visit ~cap ~h (i + 1) row (col + 1)
      done;
      let edges = ref [] in
      for k = !tail - 1 downto 1 do
        let j = queue.(k) in
        edges := (cell.(queue.(label.(j))), cell.(j)) :: !edges;
        label.(j) <- id
      done;
      label.(seed) <- id;
      groups :=
        { r_cap = cap; r_id = id; r_cells = []; r_edges = !edges;
          r_col_lo = !col_lo; r_col_hi = !col_hi; r_row_lo = !row_lo;
          r_row_hi = !row_hi }
        :: !groups;
      incr count
    end
  done;
  let members = Array.make !count [] in
  for i = n - 1 downto 0 do
    let id = label.(i) in
    if id >= 0 then members.(id) <- cell.(i) :: members.(id)
  done;
  List.fold_left
    (fun acc g -> { g with r_cells = members.(g.r_id) } :: acc)
    [] !groups

(* Reference Step 1 of Algorithm 1: every pair of one capacitor's groups
   is tested for a column overlap, and the closest cell pair compares
   6-tuple keys over the two cell lists. *)
let reference_closest (a : Ccgrid.Cell.t list) (b : Ccgrid.Cell.t list) =
  let key (x : Ccgrid.Cell.t) (y : Ccgrid.Cell.t) =
    ( abs (x.row - y.row) + abs (x.col - y.col), x.row + y.row, x.row, x.col,
      y.row, y.col )
  in
  let best = ref None in
  List.iter
    (fun ca ->
       List.iter
         (fun cb ->
            let k = key ca cb in
            match !best with
            | Some (_, _, best_key) when best_key <= k -> ()
            | Some _ | None -> best := Some (ca, cb, k))
         b)
    a;
  match !best with
  | Some (ca, cb, _) -> (ca, cb)
  | None -> invalid_arg "reference_closest: empty group"

let reference_attach (t : Ccroute.Group.t) g ~channel =
  let key (c : Ccgrid.Cell.t) =
    (Int.min (abs (c.col - channel)) (abs (c.col - (channel - 1))), c.row, c.col)
  in
  match cells_of t g with
  | [] -> invalid_arg "reference_attach: empty group"
  | first :: rest ->
    List.fold_left (fun best c -> if key c < key best then c else best) first rest

(* Step 1 for one capacitor's groups [groups] of table [t]: one
   (group id, channel, attach cell) per group, in connection order *)
let reference_select (t : Ccroute.Group.t) (groups : int array) =
  let n = Array.length groups in
  let visited = Array.make n false in
  let chosen = ref [] in
  let emit g channel attach = chosen := (g, channel, attach) :: !chosen in
  for j = 0 to n - 1 do
    if not visited.(j) then begin
      let p = groups.(j) in
      visited.(j) <- true;
      let c_j = ref (-1) and u_p = ref None in
      let left = ref [] and right = ref [] in
      for k = 0 to n - 1 do
        if (not visited.(k)) && k <> j then begin
          let q = groups.(k) in
          if Ccroute.Group.col_span_overlap t p q then begin
            let up, (uq : Ccgrid.Cell.t) =
              reference_closest (cells_of t p) (cells_of t q)
            in
            if !c_j = -1 then begin
              c_j := up.col;
              u_p := Some up
            end;
            if uq.col = !c_j - 1 || uq.col = !c_j then left := (k, q) :: !left;
            if uq.col = !c_j || uq.col = !c_j + 1 then right := (k, q) :: !right
          end
        end
      done;
      match !u_p with
      | None ->
        let attach =
          List.fold_left
            (fun (best : Ccgrid.Cell.t) (c : Ccgrid.Cell.t) ->
               if (c.row, c.col) < (best.row, best.col) then c else best)
            (List.hd (cells_of t p)) (cells_of t p)
        in
        emit p attach.col attach
      | Some up ->
        let side_left = List.length !left > List.length !right in
        let channel = if side_left then !c_j else !c_j + 1 in
        emit p channel up;
        List.iter
          (fun (k, q) ->
             visited.(k) <- true;
             emit q channel (reference_attach t q ~channel))
          (if side_left then !left else !right)
    end
  done;
  List.rev !chosen

(* Reference stub-planarity repair and Step 2: the library's
   implementation before its flat-array rewrite, with Hashtbls keyed by
   channel and by (channel, capacitor), Kahn's algorithm over lists and
   precedence tests by List.exists over strap rows.  [paths] counts the
   channels found cyclic, the re-attachments that broke a cycle and the
   stuck-channel moves that stayed, so a test can tell that its inputs
   reach the repair. *)
type paths = {
  mutable cyclic : int;
  mutable reattached : int;
  mutable moved : int;
}

let reference_of_channels (paths : paths) (placement : Ccgrid.Placement.t)
    (t : Ccroute.Group.t) choices =
  let cols = placement.Ccgrid.Placement.cols in
  (* Stub planarity repair.  Each connection straps its group to the
     trunk with an M1 stub at its attach cell's row; when capacitor A
     straps from the left column of a channel at the same row where
     capacitor B straps from the right, A's track must lie left of B's
     or the stubs overlap on M1 — a short.  These precedence constraints
     can form a cycle (A left of B at one row, B left of A at another),
     which no track order satisfies; break cycles by re-attaching one of
     the offending groups at a different channel-adjacent cell — the
     group joins the same trunk either way, only its stub row moves. *)
  let choices =
    Array.of_list
      (List.map
         (fun (g, channel, attach) -> (t.Ccroute.Group.cap.(g), g, ref channel, ref attach))
         choices)
  in
  let cyclic channel idxs =
    (* caps with their left- and right-strap rows under the current
       attaches *)
    let strap = Hashtbl.create 8 in
    List.iter
      (fun i ->
         let cap, _, _, attach = choices.(i) in
         let lefts, rights =
           Option.value ~default:([], []) (Hashtbl.find_opt strap cap)
         in
         let row = (!attach).Ccgrid.Cell.row in
         Hashtbl.replace strap cap
           (if (!attach).Ccgrid.Cell.col >= channel then (lefts, row :: rights)
            else (row :: lefts, rights)))
      idxs;
    let caps = Hashtbl.fold (fun cap _ acc -> cap :: acc) strap [] in
    let before a b =
      a <> b
      &&
      let lefts, _ = Hashtbl.find strap a
      and _, rights = Hashtbl.find strap b in
      List.exists (fun r -> List.exists (Int.equal r) rights) lefts
    in
    (* Kahn: the constraint graph is cyclic iff some cap never drains *)
    let remaining = ref caps in
    let progress = ref true in
    while !progress do
      progress := false;
      let ready, blocked =
        List.partition
          (fun b -> not (List.exists (fun a -> before a b) !remaining))
          !remaining
      in
      if ready <> [] then progress := true;
      remaining := blocked
    done;
    !remaining <> []
  in
  let by_channel_idx = Hashtbl.create 16 in
  Array.iteri
    (fun i (_, _, channel, _) ->
       Hashtbl.replace by_channel_idx !channel
         (i :: Option.value ~default:[] (Hashtbl.find_opt by_channel_idx !channel)))
    choices;
  let stuck = ref [] in
  Hashtbl.iter
    (fun channel idxs ->
       if cyclic channel idxs then begin
         paths.cyclic <- paths.cyclic + 1;
         (* greedy single-move repair: try re-attaching each connection at
            another cell adjacent to the channel, nearest row first *)
         List.iter
           (fun i ->
              if cyclic channel idxs then begin
                let _, g, _, attach = choices.(i) in
                let original = !attach in
                let candidates =
                  List.filter
                    (fun (c : Ccgrid.Cell.t) ->
                       (c.Ccgrid.Cell.col = channel - 1 || c.Ccgrid.Cell.col = channel)
                       && c.Ccgrid.Cell.row <> original.Ccgrid.Cell.row)
                    (cells_of t g)
                  |> List.sort
                       (fun (a : Ccgrid.Cell.t) (b : Ccgrid.Cell.t) ->
                          match
                            Int.compare
                              (abs (a.Ccgrid.Cell.row - original.Ccgrid.Cell.row))
                              (abs (b.Ccgrid.Cell.row - original.Ccgrid.Cell.row))
                          with
                          | 0 -> Ccgrid.Cell.compare a b
                          | c -> c)
                in
                let rec try_cells = function
                  | [] -> attach := original
                  | c :: rest ->
                    attach := c;
                    if cyclic channel idxs then try_cells rest
                    else paths.reattached <- paths.reattached + 1
                in
                try_cells candidates
              end)
           idxs;
         if cyclic channel idxs then stuck := channel :: !stuck
       end)
    by_channel_idx;
  (* A cycle no re-attachment breaks (groups with a single cell on the
     channel, e.g. rowwise strips) is broken by moving one connection to
     the channel on the other side of its attach cell: the group gets a
     trunk of its own there, joined to the net by the bridge. *)
  let idxs channel =
    Option.value ~default:[] (Hashtbl.find_opt by_channel_idx channel)
  in
  let move i ~from ~into =
    let _, _, ch, _ = choices.(i) in
    ch := into;
    Hashtbl.replace by_channel_idx from (List.filter (fun j -> j <> i) (idxs from));
    Hashtbl.replace by_channel_idx into (i :: idxs into)
  in
  List.iter
    (fun channel ->
       List.iter
         (fun i ->
            if cyclic channel (idxs channel) then begin
              let _, _, _, attach = choices.(i) in
              let col = (!attach).Ccgrid.Cell.col in
              let other = if col >= channel then col + 1 else col in
              move i ~from:channel ~into:other;
              if cyclic channel (idxs channel) || cyclic other (idxs other) then
                move i ~from:other ~into:channel
              else paths.moved <- paths.moved + 1
            end)
         (idxs channel))
    (List.sort Int.compare !stuck);
  let per_cap_choices =
    Array.to_list choices
    |> List.map (fun (cap, g, channel, attach) -> (cap, g, !channel, !attach))
  in
  (* Step 2: one track per (channel, capacitor); a capacitor's groups in
     the same channel share the track (they are one electrical net).
     Lines 42-45 assign each connection the closest available track: a
     capacitor attaching from the column right of the channel takes the
     rightmost unused track, one attaching from the left takes the
     leftmost — minimising its stub length.

     Track order must also respect stub planarity.  Every strap is an M1
     stub at its attach cell's row y, from the cell pad to the track;
     when capacitor A straps from the left column at the same row where
     capacitor B straps from the right, A's track must lie left of B's
     or the two stubs overlap on M1 — a short (a capacitor strapping
     from both sides at different rows can impose several such
     constraints, which the closest-track rule alone can violate).  So
     tracks are assigned in a topological order of these precedence
     constraints, with the closest-track rule as the tie-break:
     left-only capacitors take the leftmost tracks in discovery order,
     right-only ones the rightmost. *)
  let tracks_per_channel = Array.make (cols + 1) 0 in
  (* (channel, cap) -> (left-strap rows, right-strap rows) *)
  let strap_rows = Hashtbl.create 64 in
  let channel_caps = Array.make (cols + 1) [] in
  List.iter
    (fun (cap, _g, channel, (attach : Ccgrid.Cell.t)) ->
       let lefts, rights =
         match Hashtbl.find_opt strap_rows (channel, cap) with
         | Some lr -> lr
         | None ->
           let lr = (ref [], ref []) in
           Hashtbl.add strap_rows (channel, cap) lr;
           channel_caps.(channel) <- cap :: channel_caps.(channel);
           tracks_per_channel.(channel) <- tracks_per_channel.(channel) + 1;
           lr
       in
       (* channel ch sits left of column ch: an attach cell in column ch
          reaches the channel from the right *)
       if attach.Ccgrid.Cell.col >= channel then
         rights := attach.Ccgrid.Cell.row :: !rights
       else lefts := attach.Ccgrid.Cell.row :: !lefts)
    per_cap_choices;
  let track_table = Hashtbl.create 64 in
  let track_caps =
    Array.mapi (fun ch n -> (ch, Array.make n (-1))) tracks_per_channel
    |> Array.map snd
  in
  Array.iteri
    (fun channel caps_rev ->
       let caps = Array.of_list (List.rev caps_rev) in
       let n = Array.length caps in
       let rows side =
         Array.map (fun cap -> !(side (Hashtbl.find strap_rows (channel, cap)))) caps
       in
       let lefts = rows fst and rights = rows snd in
       (* [before.(i).(j)]: [i] must take a track left of [j]'s *)
       let before =
         Array.init n (fun i ->
             Array.init n (fun j ->
                 i <> j
                 && List.exists
                      (fun r -> List.exists (Int.equal r) rights.(j))
                      lefts.(i)))
       in
       let indeg = Array.make n 0 in
       for i = 0 to n - 1 do
         for j = 0 to n - 1 do
           if before.(i).(j) then indeg.(j) <- indeg.(j) + 1
         done
       done;
       (* closest-track tie-break: left-only strappers first (lowest
          tracks) in discovery order, right-only last in reverse
          discovery order (the first discovered ends up rightmost).
          Class c and rank r <= n are packed as c (n + 1) + r, so int
          order is (class, rank) order. *)
       let key =
         Array.init n (fun i ->
             match (lefts.(i), rights.(i)) with
             | _ :: _, [] -> i
             | _ :: _, _ :: _ -> (n + 1) + i
             | [], _ -> (2 * (n + 1)) + (n - i))
       in
       let assigned = Array.make n false in
       for track = 0 to n - 1 do
         let pick ~ready =
           let best = ref (-1) in
           for i = 0 to n - 1 do
             if (not assigned.(i)) && ((not ready) || indeg.(i) = 0) then
               if !best = -1 || key.(i) < key.(!best) then best := i
           done;
           !best
         in
         (* a precedence cycle (A left of B and B left of A) cannot be
            satisfied by track order alone; fall back to the tie-break
            and let the LVS gate report the residual overlap *)
         let i = match pick ~ready:true with -1 -> pick ~ready:false | i -> i in
         assigned.(i) <- true;
         for j = 0 to n - 1 do
           if (not assigned.(j)) && before.(i).(j) then
             indeg.(j) <- indeg.(j) - 1
         done;
         Hashtbl.add track_table (channel, caps.(i)) track;
         track_caps.(channel).(track) <- caps.(i)
       done)
    channel_caps;
  let m = List.length per_cap_choices in
  let order = Array.make m 0 and channel = Array.make m 0 in
  let track = Array.make m 0 and attach = Array.make m 0 in
  List.iteri
    (fun c (cap, g, ch, (at : Ccgrid.Cell.t)) ->
       order.(c) <- g;
       channel.(g) <- ch;
       track.(g) <- Hashtbl.find track_table (ch, cap);
       attach.(g) <- (at.row * cols) + at.col)
    per_cap_choices;
  { Ccroute.Plan.order; channel; track; attach; tracks_per_channel; track_caps }

(* Step 1's choices over every capacitor of [groups], in id order *)
let reference_choices (p : Ccgrid.Placement.t) groups =
  List.concat_map
    (fun cap -> reference_select groups (Array.of_list (ids_of_cap groups cap)))
    (List.init (p.bits + 1) Fun.id)

let reference_plan (p : Ccgrid.Placement.t) groups =
  reference_of_channels { cyclic = 0; reattached = 0; moved = 0 } p groups
    (reference_choices p groups)

(* Random assignments: 1-5 bits, 1-12 rows and columns (odd, even and
   non-square grids), dummies, and cells that copy a neighbour's id with
   probability [clump]/4 so capacitors also form larger components. *)
let gen_assignment =
  QCheck.Gen.(
    map3 (fun a b c -> (a, b, c)) (int_range 1 5) (int_range 1 12) (int_range 1 12)
    >>= fun (bits, rows, cols) ->
    int_range 0 3 >>= fun clump st ->
    let a = Array.make_matrix rows cols 0 in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        a.(r).(c) <-
          (if (r > 0 || c > 0) && Random.State.int st 4 < clump then
             if c = 0 || (r > 0 && Random.State.bool st) then a.(r - 1).(c)
             else a.(r).(c - 1)
           else Random.State.int st (bits + 2) - 1)
      done
    done;
    (bits, a))

let placement_of_assignment (bits, assign) =
  let counts = Array.make (bits + 1) 0 in
  Array.iter
    (Array.iter (fun id -> if id >= 0 then counts.(id) <- counts.(id) + 1))
    assign;
  Ccgrid.Placement.create ~bits ~rows:(Array.length assign)
    ~cols:(Array.length assign.(0)) ~unit_multiplier:1 ~counts ~assign
    ~style_name:"random"

let arb_assignment =
  QCheck.make
    ~print:(fun (bits, assign) ->
        Printf.sprintf "bits %d\n%s" bits
          (String.concat "\n"
             (Array.to_list
                (Array.map
                   (fun row ->
                      String.concat " "
                        (Array.to_list (Array.map string_of_int row)))
                   assign))))
    gen_assignment

let prop_matches_reference mode name =
  QCheck.Test.make ~name ~count:300 arb_assignment (fun a ->
      let p = placement_of_assignment a in
      let groups = Ccroute.Group.of_placement ~mode p in
      let reference = reference_groups mode p in
      if decode_all groups <> reference then
        QCheck.Test.fail_report "groups differ";
      if Ccroute.Plan.make p groups <> reference_plan p groups then
        QCheck.Test.fail_report "plans differ";
      true)

(* Step-1 choices drawn at random: each group attaches at a random member
   cell, to the channel on that cell's left or right. *)
let random_choices st groups =
  List.map
    (fun g ->
       let cells = Array.of_list (cells_of groups g) in
       let (c : Ccgrid.Cell.t) = cells.(Random.State.int st (Array.length cells)) in
       (g, (if Random.State.bool st then c.col else c.col + 1), c))
    (ids groups)

(* Plan inputs built by hand from single-cell groups: (cap, row, col,
   channel) connects the cell at (row, col) to [channel], in the order
   listed; every other cell is a dummy. *)
let hand_built ~rows ~cols connections =
  let assign = Array.make_matrix rows cols (-1) in
  List.iter (fun (cap, row, col, _) -> assign.(row).(col) <- cap) connections;
  let bits = List.fold_left (fun acc (cap, _, _, _) -> Int.max acc cap) 0 connections in
  let p = placement_of_assignment (bits, assign) in
  let groups = Ccroute.Group.of_placement p in
  ( p,
    groups,
    List.map
      (fun (_, row, col, channel) ->
         let at = Ccgrid.Cell.make ~row ~col in
         let g =
           List.find
             (fun g -> List.exists (Ccgrid.Cell.equal at) (cells_of groups g))
             (ids groups)
         in
         (g, channel, at))
      connections )

(* Capacitors 0-3 are X, Y, Z, W on a 7 x 4 grid.  Two stuck channels,
   each broken by a move into channel 2 where the two moves together
   would form a cycle, so the channel taken first keeps its move:
   channel 1 has X before Y at row 0 and Y before X at row 2, channel 3
   has X before W at row 4 and W before X at row 6, and channel 2 has Z
   strapping from the right at row 2 and from the left at row 4. *)
let two_stuck_channels () =
  hand_built ~rows:7 ~cols:4
    [ (0, 0, 0, 1); (1, 0, 1, 1); (1, 2, 0, 1); (0, 2, 1, 1);
      (2, 2, 2, 2); (2, 4, 1, 2);
      (3, 4, 3, 3); (0, 6, 3, 3); (3, 6, 2, 3); (0, 4, 2, 3) ]

(* One stuck channel, 2, with X before Y at row 0 and Y before X at row
   2.  Its first two moves close a cycle in channel 3 (X before Z at row
   2, Z before X at row 4) and in channel 1 (W before Y at row 2, Y
   before W at row 6) and are undone; the third, into channel 3, stays.
   Channel 1's tracks must come out as if the undone move never
   happened. *)
let undone_moves () =
  hand_built ~rows:7 ~cols:4
    [ (3, 2, 0, 1); (1, 6, 0, 1); (3, 6, 1, 1);
      (0, 0, 1, 2); (1, 0, 2, 2); (1, 2, 1, 2); (0, 2, 2, 2);
      (2, 2, 3, 3); (2, 4, 2, 3); (0, 4, 3, 3) ]

(* The stub repair and Step 2 against the reference on the same choices,
   over random grids and random choices, the block-chess designs whose
   Step-1 choices the repair changes, two stuck channels whose moves
   compete, moves that are undone, and a 68-capacitor thermometer bank (capacitor ids past a
   machine word's bit count).  Every repair path must be reached: a
   cyclic channel, a re-attachment that breaks a cycle and a move to the
   other channel that stays. *)
let test_of_channels_matches_reference () =
  let paths = { cyclic = 0; reattached = 0; moved = 0 } in
  let check what (p : Ccgrid.Placement.t) groups choices =
    let ids =
      List.map
        (fun (g, ch, (at : Ccgrid.Cell.t)) -> (g, ch, (at.row * p.cols) + at.col))
        choices
    in
    if Ccroute.Plan.of_channels p groups ids
       <> reference_of_channels paths p groups choices
    then Alcotest.failf "%s: plans differ" what
  in
  let p, groups, choices = two_stuck_channels () in
  check "two stuck channels" p groups choices;
  let p, groups, choices = undone_moves () in
  check "undone moves" p groups choices;
  let rand = Random.State.make [| 22 |] in
  for i = 1 to 3000 do
    let p = placement_of_assignment (QCheck.Gen.generate1 ~rand gen_assignment) in
    let groups = Ccroute.Group.of_placement p in
    check (Printf.sprintf "random grid %d" i) p groups (random_choices rand groups)
  done;
  List.iter
    (fun (bits, style) ->
       let p = Ccplace.Style.place ~bits style in
       let groups = Ccroute.Group.of_placement p in
       check (Ccplace.Style.name style) p groups (reference_choices p groups))
    Ccplace.Style.
      [ (8, Block_chess { core_bits = 6; granularity = 4 });
        (13, Block_chess { core_bits = 11; granularity = 2 }) ];
  let thermometer =
    Ccplace.General.clustered
      ~counts:(Array.append [| 1; 1; 2; 4; 8 |] (Array.make 63 16))
  in
  let groups = Ccroute.Group.of_placement thermometer in
  check "thermometer, Step 1" thermometer groups
    (reference_choices thermometer groups);
  check "thermometer, random choices" thermometer groups
    (random_choices rand groups);
  Alcotest.(check bool)
    (Printf.sprintf "repair paths reached (%d cyclic, %d re-attached, %d moved)"
       paths.cyclic paths.reattached paths.moved)
    true
    (paths.cyclic > 0 && paths.reattached > 0 && paths.moved > 0)

(* Two disjoint random cell sets on a grid of up to 12 x 12, each cell in
   [a] or [b] with probability [density]/8: closest_cells must pick the
   all-pairs minimum, whichever rows and columns the sets share. *)
let prop_closest_matches_reference =
  let gen =
    QCheck.Gen.(
      map3 (fun r c d -> (r, c, d)) (int_range 1 12) (int_range 1 12) (int_range 1 4)
      >>= fun (rows, cols, density) st ->
      let pick () = Random.State.int st 8 < density in
      let a = ref [] and b = ref [] in
      for row = rows - 1 downto 0 do
        for col = cols - 1 downto 0 do
          let c = Ccgrid.Cell.make ~row ~col in
          if pick () then a := c :: !a else if pick () then b := c :: !b
        done
      done;
      (!a, !b))
  in
  let print_cells cs =
    String.concat " "
      (List.map (fun (c : Ccgrid.Cell.t) -> Printf.sprintf "(%d,%d)" c.row c.col) cs)
  in
  QCheck.Test.make ~name:"closest cells = all-pairs minimum" ~count:1000
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "a: %s\nb: %s" (print_cells a) (print_cells b))
       gen)
    (fun (a, b) ->
       a = [] || b = []
       ||
       let t = table_of_cells ~cols:12 [ a; b ] and out = Array.make 2 (-1) in
       Ccroute.Group.closest_cells t 0 1 out;
       let ra, rb = reference_closest a b in
       Ccgrid.Cell.equal (Ccroute.Group.cell t out.(0)) ra
       && Ccgrid.Cell.equal (Ccroute.Group.cell t out.(1)) rb)

let test_cells_shared_with_edges () =
  let t = Ccroute.Group.of_placement (Ccplace.Block_chess.place ~bits:8 ()) in
  List.iter
    (fun g ->
       let cells = cells_of t g in
       List.iter
         (fun (a, b) ->
            Alcotest.(check bool) "edge ends are the group's cells" true
              (List.mem a cells && List.mem b cells))
         (edges_of t g))
    (ids t)

(* The id arrays decode to the cells and tree edges the list-based
   formation built, in the same order: every style at 2-16 bits, every
   block-chess (core, g) pair at 3-10 bits, and Ccplace.General banks. *)
let test_ids_decode_to_parent () =
  let check what p =
    let got = decode_all (Ccroute.Group.of_placement p) in
    if got <> parent_components p then Alcotest.failf "%s: groups differ" what
  in
  for bits = 2 to 16 do
    List.iter
      (fun style ->
         check
           (Printf.sprintf "%s %d-bit" (Ccplace.Style.name style) bits)
           (Ccplace.Style.place ~bits style))
      Ccplace.Style.[ Spiral; Chessboard; Rowwise; block_default ~bits ]
  done;
  for bits = 3 to 10 do
    for core_bits = 1 to bits - 1 do
      List.iter
        (fun granularity ->
           check
             (Printf.sprintf "block-chess(core=%d,g=%d) %d-bit" core_bits
                granularity bits)
             (Ccplace.Block_chess.place ~bits ~core_bits ~granularity ()))
        [ 1; 2; 3; 4; 8 ]
    done
  done;
  List.iter
    (fun counts ->
       check "interleaved bank" (Ccplace.General.interleaved ~counts);
       check "clustered bank" (Ccplace.General.clustered ~counts))
    [ [| 1; 1; 2; 4; 8 |]; [| 3; 5; 7 |];
      Array.append [| 1; 1; 2; 4; 8 |] (Array.make 63 16) ]

(* --- the flat wire table --- *)

let all_kinds = Ccroute.Layout.[ Branch; Stub; Trunk; Bridge; Top ]
let all_layers = Tech.Layer.[ M1; M2; M3 ]

(* [ws] through the table and back: the same wires in the same order,
   each also read by index, field by field *)
let round_trips ws =
  let module W = Ccroute.Layout.Wires in
  let t = W.of_list ws in
  W.to_list t = ws
  && W.length t = List.length ws
  && List.for_all Fun.id
       (List.mapi
          (fun i (w : Ccroute.Layout.wire) ->
             W.get t i = w && W.cap t i = w.w_cap && W.kind t i = w.w_kind
             && W.layer t i = w.w_layer && W.p t i = w.w_p)
          ws)

let test_wire_table_cases () =
  let wire ~kind ~layer i =
    { Ccroute.Layout.w_cap = i - 2; w_kind = kind; w_layer = layer;
      w_ax = float_of_int i; w_ay = -0.5; w_bx = 1e-7 *. float_of_int i;
      w_by = 123.456; w_p = 1 + (i mod 3) }
  in
  Alcotest.(check bool) "empty" true (round_trips []);
  Alcotest.(check bool) "one wire" true
    (round_trips [ wire ~kind:Ccroute.Layout.Trunk ~layer:Tech.Layer.M3 0 ]);
  Alcotest.(check bool) "every kind on every layer" true
    (round_trips
       (List.concat_map
          (fun kind -> List.mapi (fun i layer -> wire ~kind ~layer i) all_layers)
          all_kinds));
  Alcotest.(check bool) "a routed layout's wires" true
    (round_trips (Ccroute.Layout.Wires.to_list layout_chess.Ccroute.Layout.wires)
     && round_trips
       (Ccroute.Layout.Wires.to_list layout_chess.Ccroute.Layout.top_wires))

let prop_wire_table_round_trip =
  let gen_wire =
    QCheck.Gen.(
      map3
        (fun (cap, p) (kind, layer) (ax, ay, bx, by) ->
           { Ccroute.Layout.w_cap = cap; w_kind = kind; w_layer = layer;
             w_ax = ax; w_ay = ay; w_bx = bx; w_by = by; w_p = p })
        (pair (int_range (-2) 20) (int_range 1 4))
        (pair (oneofl all_kinds) (oneofl all_layers))
        (quad (float_range (-1e3) 1e3) (float_range (-1e3) 1e3)
           (float_range (-1e3) 1e3) (float_range (-1e3) 1e3)))
  in
  QCheck.Test.make ~name:"wire table round trip" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) gen_wire))
    round_trips

let prop_route_any_placement =
  QCheck.Test.make ~name:"routing succeeds on random config" ~count:40
    QCheck.(pair (int_range 2 9) (int_range 0 3))
    (fun (bits, idx) ->
       let style =
         match idx with
         | 0 -> Ccplace.Style.Spiral
         | 1 -> Ccplace.Style.Chessboard
         | 2 -> Ccplace.Style.Rowwise
         | _ -> Ccplace.Style.block_default ~bits
       in
       let p = Ccplace.Style.place ~bits style in
       let layout = Ccroute.Layout.route tech p in
       Array.for_all
         (fun (net : Ccroute.Layout.capnet) ->
            net.Ccroute.Layout.cn_trunks <> [])
         layout.Ccroute.Layout.nets)

let () =
  Alcotest.run "ccroute"
    [ ( "groups",
        [ Alcotest.test_case "partition" `Quick test_groups_partition_cells;
          Alcotest.test_case "connected trees" `Quick test_groups_are_connected;
          Alcotest.test_case "chessboard singletons" `Quick test_chessboard_groups_are_singletons;
          Alcotest.test_case "spans" `Quick test_group_spans;
          Alcotest.test_case "straight runs" `Quick test_straight_runs_are_straight;
          Alcotest.test_case "closest cells" `Quick test_closest_cells;
          Alcotest.test_case "span overlap" `Quick test_col_span_overlap;
          Alcotest.test_case "cells shared with edges" `Quick
            test_cells_shared_with_edges;
          Alcotest.test_case "stub repair and Step 2 = reference" `Quick
            test_of_channels_matches_reference;
          Alcotest.test_case "ids decode to the list formation" `Quick
            test_ids_decode_to_parent ] );
      ( "oracles",
        List.map QCheck_alcotest.to_alcotest
          [ prop_closest_matches_reference;
            prop_matches_reference Ccroute.Group.Connected
              "connected groups and plan = Set BFS + all-pairs scan";
            prop_matches_reference Ccroute.Group.Straight_runs
              "straight-run groups and plan = Set BFS + all-pairs scan" ] );
      ( "plan",
        [ Alcotest.test_case "all groups routed" `Quick test_every_group_routed;
          Alcotest.test_case "tracks = caps" `Quick test_tracks_count_distinct_caps;
          Alcotest.test_case "track indices" `Quick test_track_indices_dense;
          Alcotest.test_case "shared tracks" `Quick test_same_cap_same_channel_same_track;
          Alcotest.test_case "attach member" `Quick test_attach_is_group_member;
          Alcotest.test_case "channel range" `Quick test_channel_in_range ] );
      ( "layout",
        [ Alcotest.test_case "geometry monotone" `Quick test_layout_geometry_monotone;
          Alcotest.test_case "every net routed" `Quick test_layout_every_cap_has_net;
          Alcotest.test_case "one primary" `Quick test_layout_one_primary_trunk_per_net;
          Alcotest.test_case "bridge iff trunks" `Quick test_layout_bridge_iff_multiple_trunks;
          Alcotest.test_case "trunk extents" `Quick test_layout_trunk_extents;
          Alcotest.test_case "axis aligned" `Quick test_layout_wires_axis_aligned;
          Alcotest.test_case "parallel policy" `Quick test_layout_parallel_policy;
          Alcotest.test_case "bad parallel" `Quick test_layout_rejects_bad_parallel;
          Alcotest.test_case "via p" `Quick test_layout_via_positive_p;
          Alcotest.test_case "top plate" `Quick test_layout_top_plate;
          Alcotest.test_case "channel widths" `Quick test_layout_channel_widths_match_tracks;
          Alcotest.test_case "spiral fewer vias" `Quick test_spiral_fewer_vias_than_chessboard;
          Alcotest.test_case "wire table" `Quick test_wire_table_cases ] );
      ( "mst",
        [ Alcotest.test_case "triangle" `Quick test_mst_triangle;
          Alcotest.test_case "disconnected" `Quick test_mst_rejects_disconnected;
          Alcotest.test_case "negative" `Quick test_mst_rejects_negative;
          Alcotest.test_case "grid closed form" `Quick test_grid_mst_closed_form;
          Alcotest.test_case "top plate is MST" `Quick test_topplate_is_mst ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_route_any_placement; prop_wire_table_round_trip ] ) ]
