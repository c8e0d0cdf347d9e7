open Ccgrid

let r_well_formed =
  Rule.make ~id:"place/well-formed" ~category:Rule.Placement
    ~severity:Rule.Error
    ~doc:
      "The placement record must be structurally valid: bits in range, \
       positive grid dimensions, a counts array of length bits+1, an \
       assignment matrix matching the grid, and a unit multiplier >= 1."

let r_grid_coverage =
  Rule.make ~id:"place/grid-coverage" ~category:Rule.Placement
    ~severity:Rule.Error
    ~doc:
      "Every grid cell must hold a declared capacitor id or a dummy — no \
       holes or out-of-range ids."

let r_cell_count =
  Rule.make ~id:"place/cell-count" ~category:Rule.Placement
    ~severity:Rule.Error
    ~doc:
      "Each capacitor must occupy exactly counts[k] grid cells — the cell \
       population realises the declared ratios."

let r_binary_weights =
  Rule.make ~id:"place/binary-weights" ~category:Rule.Placement
    ~severity:Rule.Error
    ~doc:
      "The declared counts must be the binary weights 1, 1, 2, ..., 2^(N-1) \
       scaled by the unit multiplier — what the DAC transfer and INL/DNL \
       models assume."

let r_mirror =
  Rule.make ~id:"place/mirror-symmetry" ~category:Rule.Placement
    ~severity:Rule.Error
    ~doc:
      "The assignment must be invariant under 180-degree rotation about the \
       array centre, with the split pair C_0/C_1 mirroring each other — the \
       pair discipline that cancels linear gradients."

let r_centroid =
  Rule.make ~id:"place/centroid" ~category:Rule.Placement ~severity:Rule.Error
    ~doc:
      "Every capacitor with at least two cells must have its centroid on \
       the array centre (within tolerance) — the common-centroid property \
       itself."

let r_lsb_pair =
  Rule.make ~id:"place/lsb-pair-centroid" ~category:Rule.Placement
    ~severity:Rule.Error
    ~doc:
      "C_0 and C_1 are single-cell capacitors placed as a split pair: their \
       joint centroid must be on the array centre."

let r_dispersion =
  Rule.make ~id:"place/dispersion" ~category:Rule.Placement
    ~severity:Rule.Warning
    ~doc:
      "The count-weighted RMS dispersion of the capacitors must stay within \
       the declared bound of the whole-array RMS — placements above it \
       waste the correlated-mismatch benefit of compactness."

let rules =
  [ r_well_formed; r_grid_coverage; r_cell_count; r_binary_weights; r_mirror;
    r_centroid; r_lsb_pair; r_dispersion ]

let dummy = -1

type emitter = Rule.t -> ?loc:string -> string -> unit

let structural (p : Placement.t) (emit : emitter) =
  let ok = ref true in
  let fail rule ?loc fmt =
    Printf.ksprintf
      (fun d ->
         ok := false;
         emit rule ?loc d)
      fmt
  in
  if p.Placement.bits < 1 || p.Placement.bits > Weights.max_bits then
    fail r_well_formed "bits = %d outside [1, %d]" p.Placement.bits
      Weights.max_bits;
  if p.Placement.rows < 1 || p.Placement.cols < 1 then
    fail r_well_formed "empty %dx%d grid" p.Placement.rows p.Placement.cols;
  if p.Placement.unit_multiplier < 1 then
    fail r_well_formed "unit multiplier %d is below 1"
      p.Placement.unit_multiplier;
  if Array.length p.Placement.counts <> p.Placement.bits + 1 then
    fail r_well_formed "counts has %d entries, expected bits + 1 = %d"
      (Array.length p.Placement.counts)
      (p.Placement.bits + 1);
  if Array.length p.Placement.assign <> p.Placement.rows then
    fail r_well_formed "assignment has %d rows, grid declares %d"
      (Array.length p.Placement.assign)
      p.Placement.rows
  else
    Array.iteri
      (fun row r ->
         if Array.length r <> p.Placement.cols then
           fail r_well_formed ~loc:(Printf.sprintf "row %d" row)
             "assignment row has %d columns, grid declares %d"
             (Array.length r) p.Placement.cols)
      p.Placement.assign;
  !ok

let valid_id (p : Placement.t) id =
  id = dummy || (id >= 0 && id <= p.Placement.bits)

let check_coverage (p : Placement.t) (emit : emitter) =
  (* one diagnostic per distinct invalid id, anchored at its first cell *)
  let seen = Hashtbl.create 4 in
  for row = 0 to p.Placement.rows - 1 do
    for col = 0 to p.Placement.cols - 1 do
      let id = p.Placement.assign.(row).(col) in
      if not (valid_id p id) then begin
        let count, cell =
          Option.value ~default:(0, (row, col)) (Hashtbl.find_opt seen id)
        in
        Hashtbl.replace seen id (count + 1, cell)
      end
    done
  done;
  List.iter
    (fun (id, (count, (row, col))) ->
       emit r_grid_coverage ~loc:(Printf.sprintf "cell (%d,%d)" row col)
         (Printf.sprintf
            "%d cell(s) hold invalid id %d (valid: dummy %d or 0..%d)" count
            id dummy p.Placement.bits))
    (List.sort
       (fun (id_a, (n_a, (r_a, c_a))) (id_b, (n_b, (r_b, c_b))) ->
          match Int.compare id_a id_b with
          | 0 -> begin
              match Int.compare n_a n_b with
              | 0 -> begin
                  match Int.compare r_a r_b with
                  | 0 -> Int.compare c_a c_b
                  | c -> c
                end
              | c -> c
            end
          | c -> c)
       (Hashtbl.fold (fun id v acc -> (id, v) :: acc) seen []))

let occupancy (p : Placement.t) =
  let occ = Array.make (p.Placement.bits + 1) 0 in
  Array.iter
    (fun row ->
       Array.iter
         (fun id -> if id >= 0 && id <= p.Placement.bits then occ.(id) <- occ.(id) + 1)
         row)
    p.Placement.assign;
  occ

let check_cell_count (p : Placement.t) occ (emit : emitter) =
  Array.iteri
    (fun k expected ->
       if occ.(k) <> expected then
         emit r_cell_count ~loc:(Printf.sprintf "C_%d" k)
           (Printf.sprintf "occupies %d cells, counts declare %d" occ.(k)
              expected))
    p.Placement.counts

let check_binary_weights (p : Placement.t) (emit : emitter) =
  let expected =
    Weights.scale
      (Weights.unit_counts ~bits:p.Placement.bits)
      ~by:p.Placement.unit_multiplier
  in
  Array.iteri
    (fun k want ->
       if p.Placement.counts.(k) <> want then
         emit r_binary_weights ~loc:(Printf.sprintf "C_%d" k)
           (Printf.sprintf "declared count %d, binary weight is %d (x%d units)"
              p.Placement.counts.(k) want p.Placement.unit_multiplier))
    expected

(* Cell (row, col) mirrors to (rows - 1 - row, cols - 1 - col); each
   unordered pair is compared once, from the cell that comes first in
   row-major order, by index. *)
let check_mirror (p : Placement.t) (emit : emitter) =
  let rows = p.Placement.rows and cols = p.Placement.cols in
  let assign = p.Placement.assign in
  let mismatches = ref 0 and example = ref (-1) in
  for row = 0 to rows - 1 do
    let mrow = rows - 1 - row in
    for col = 0 to cols - 1 do
      let mcol = cols - 1 - col in
      if row < mrow || (row = mrow && col <= mcol) then begin
        let id = assign.(row).(col) and mid = assign.(mrow).(mcol) in
        let fine =
          (not (valid_id p id))   (* invalid ids are grid-coverage's finding *)
          || (not (valid_id p mid))
          || id = mid
          || (id = 0 && mid = 1)
          || (id = 1 && mid = 0)
        in
        if not fine then begin
          incr mismatches;
          if !example < 0 then example := (row * cols) + col
        end
      end
    done
  done;
  if !example >= 0 then begin
    let c = Cell.make ~row:(!example / cols) ~col:(!example mod cols) in
    let m = Cell.mirror ~rows ~cols c in
    let id = assign.(c.Cell.row).(c.Cell.col)
    and mid = assign.(m.Cell.row).(m.Cell.col) in
    let name k = if k = dummy then "dummy" else Printf.sprintf "C_%d" k in
    emit r_mirror
      ~loc:(Format.asprintf "cell %a" Cell.pp c)
      (Printf.sprintf
         "%d mirror pair(s) disagree; e.g. %s holds %s but its mirror %s \
          holds %s"
         !mismatches
         (Format.asprintf "%a" Cell.pp c)
         (name id)
         (Format.asprintf "%a" Cell.pp m)
         (name mid))
  end

(* [sums] is Placement.position_sums: the count and row-major position
   sum of each capacitor, from one pass over the grid. *)
let centroid_error (n, sum) =
  Geom.Point.distance
    (Geom.Point.scale (1. /. float_of_int n) sum)
    Geom.Point.origin

let check_centroid ~tol sums (p : Placement.t) (emit : emitter) =
  for k = 0 to p.Placement.bits do
    let n, _ = sums.(k) in
    if n >= 2 then begin
      let err = centroid_error sums.(k) in
      if err > tol then
        emit r_centroid ~loc:(Printf.sprintf "C_%d" k)
          (Printf.sprintf "centroid is %.4g um off the array centre (tol %g)"
             err tol)
    end
  done

(* The joint centroid adds C_1's positions to C_0's sum, in the order of
   the C_0 cells followed by the C_1 cells. *)
let check_lsb_pair ~tol tech sums (p : Placement.t) (emit : emitter) =
  let n0, sum0 = sums.(0) in
  let c1 = List.map (Placement.position tech p) (Placement.cells_of p 1) in
  let n = n0 + List.length c1 in
  if n >= 2 then begin
    let err = centroid_error (n, List.fold_left Geom.Point.add sum0 c1) in
    if err > tol then
      emit r_lsb_pair ~loc:"C_0/C_1"
        (Printf.sprintf
           "joint centroid is %.4g um off the array centre (tol %g)" err tol)
  end

let check_dispersion ~bound tech (p : Placement.t) (emit : emitter) =
  let overall = Dispersion.overall tech p in
  if overall > bound then
    emit r_dispersion
      (Printf.sprintf
         "overall weighted dispersion %.3f exceeds the declared bound %.3f"
         overall bound)

let check ?(centroid_tol = 1e-6) ?(dispersion_bound = 1.1) tech
    (p : Placement.t) =
  let out = ref [] in
  let emit : emitter = fun rule ?loc detail -> out := Diagnostic.make ?loc rule detail :: !out in
  if structural p emit then begin
    check_coverage p emit;
    let occ = occupancy p in
    check_cell_count p occ emit;
    check_binary_weights p emit;
    check_mirror p emit;
    let sums = Placement.position_sums tech p in
    check_centroid ~tol:centroid_tol sums p emit;
    check_lsb_pair ~tol:centroid_tol tech sums p emit;
    check_dispersion ~bound:dispersion_bound tech p emit
  end;
  List.rev !out
