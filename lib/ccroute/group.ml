open Ccgrid

type t = {
  cap : int;
  id : int;
  cells : Cell.t list;
  tree_edges : (Cell.t * Cell.t) list;
  col_lo : int;
  col_hi : int;
  row_lo : int;
  row_hi : int;
}

type mode =
  | Connected
  | Straight_runs

let make_group ~cap ~id cells tree_edges =
  let col_lo = ref max_int and col_hi = ref min_int in
  let row_lo = ref max_int and row_hi = ref min_int in
  List.iter
    (fun (c : Cell.t) ->
       col_lo := Int.min !col_lo c.Cell.col;
       col_hi := Int.max !col_hi c.Cell.col;
       row_lo := Int.min !row_lo c.Cell.row;
       row_hi := Int.max !row_hi c.Cell.row)
    cells;
  { cap; id; cells; tree_edges; col_lo = !col_lo; col_hi = !col_hi;
    row_lo = !row_lo; row_hi = !row_hi }

(* Split a cell set into maximal straight runs along one orientation.
   [major]/[minor] project a cell to (run key, position within run). *)
let runs_along ~major ~minor cells =
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
    | c :: rest ->
      (match run with
       | prev :: _ when major prev = major c && minor c = minor prev + 1 ->
         walk (c :: run) acc rest
       | [] | _ :: _ -> walk [ c ] (finish run acc) rest)
  in
  List.rev (walk [] [] sorted)

let split_runs cells =
  let horizontal =
    runs_along
      ~major:(fun (c : Cell.t) -> c.Cell.row)
      ~minor:(fun (c : Cell.t) -> c.Cell.col)
      cells
  in
  let vertical =
    runs_along
      ~major:(fun (c : Cell.t) -> c.Cell.col)
      ~minor:(fun (c : Cell.t) -> c.Cell.row)
      cells
  in
  if List.length vertical <= List.length horizontal then vertical else horizontal

(* Chain tree edges along a straight run of cells. *)
let run_edges cells =
  let rec pair = function
    | a :: (b :: _ as rest) -> (a, b) :: pair rest
    | [ _ ] | [] -> []
  in
  pair cells

(* The groups of every connected component, ordered by (cap, seed) and
   numbered from 0.  Cells are indexed row-major; a counting sort lists
   each capacitor's cells in row-major order, and a BFS starts at each
   one not yet labelled, trying neighbours in [Cell.neighbors] order
   through a queue array and taking the group's bounds as it goes.
   While a BFS runs, [label] holds each reached cell's parent's queue
   position; one backward pass over the queue then lists the tree edges
   in visit order and relabels the cells with the group id.  Each cell
   gets one [Cell.t] when first reached, shared by its group's cells and
   tree edges; a last row-major pass lists each group's cells. *)
let components (p : Placement.t) =
  let rows = p.Placement.rows and cols = p.Placement.cols in
  let assign = p.Placement.assign in
  let caps = p.Placement.bits + 1 and n = rows * cols in
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
  let cell = Array.make n (Cell.make ~row:(-1) ~col:(-1)) in
  let queue = Array.make n 0 in
  let tail = ref 0 in
  (* reach cell [j] at (row, col) from the cell at queue position [h] *)
  let visit ~cap ~h j row col =
    if label.(j) < 0 && assign.(row).(col) = cap then begin
      label.(j) <- h;
      cell.(j) <- Cell.make ~row ~col;
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
      cell.(seed) <- Cell.make ~row ~col;
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
        { cap; id; cells = []; tree_edges = !edges; col_lo = !col_lo;
          col_hi = !col_hi; row_lo = !row_lo; row_hi = !row_hi }
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
    (fun acc g -> { g with cells = members.(g.id) } :: acc)
    [] !groups

let of_placement ?(mode = Connected) (p : Placement.t) =
  match mode with
  | Connected -> components p
  | Straight_runs ->
    let next_id = ref 0 and groups = ref [] in
    List.iter
      (fun g ->
         List.iter
           (fun run ->
              groups :=
                make_group ~cap:g.cap ~id:!next_id run (run_edges run) :: !groups;
              incr next_id)
           (split_runs g.cells))
      (components p);
    List.rev !groups

let of_cap groups k = List.filter (fun g -> g.cap = k) groups
let size g = List.length g.cells

let col_span_overlap a b = a.col_lo <= b.col_hi && b.col_lo <= a.col_hi

(* Tie-break key per Algorithm 1 line 16: distance, then closeness to the
   array bottom, then row-major determinism, compared field by field as
   ints.  The key orders all pairs strictly.  In one row of [b] only the
   two cells bracketing a cell's column can be closest to it (any other is
   farther), so for each cell of [a] the search visits the rows of [b]
   within the best distance so far and binary-searches [b]'s row-major
   cells for the bracket. *)
let closest_cells_in a bs =
  let dist (x : Cell.t) (y : Cell.t) =
    abs (x.Cell.row - y.Cell.row) + abs (x.Cell.col - y.Cell.col)
  in
  match a.cells with
  | [] -> invalid_arg "Group.closest_cells: empty group"
  | _ when Array.length bs = 0 -> invalid_arg "Group.closest_cells: empty group"
  | a0 :: _ ->
    let b0 = bs.(0) in
    let best_a = ref a0 and best_b = ref b0 in
    let best_d = ref (dist a0 b0) and best_s = ref (a0.Cell.row + b0.Cell.row) in
    let consider (ca : Cell.t) (cb : Cell.t) =
      let d = dist ca cb and s = ca.Cell.row + cb.Cell.row in
      if d < !best_d
         || d = !best_d
            && (s < !best_s
                || s = !best_s
                   && (match Cell.compare ca !best_a with
                       | 0 -> Cell.compare cb !best_b < 0
                       | c -> c < 0))
      then begin
        best_a := ca;
        best_b := cb;
        best_d := d;
        best_s := s
      end
    in
    let n = Array.length bs in
    (* index of the first cell of [b] at or after (row, col) *)
    let lower_bound row col =
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let m = (!lo + !hi) / 2 in
        let c = bs.(m) in
        if c.Cell.row < row || (c.Cell.row = row && c.Cell.col < col) then
          lo := m + 1
        else hi := m
      done;
      !lo
    in
    List.iter
      (fun (ca : Cell.t) ->
         let row = ref (Int.max bs.(0).Cell.row (ca.Cell.row - !best_d)) in
         while !row <= Int.min bs.(n - 1).Cell.row (ca.Cell.row + !best_d) do
           let i = lower_bound !row ca.Cell.col in
           if i < n && bs.(i).Cell.row = !row then consider ca bs.(i);
           if i > 0 && bs.(i - 1).Cell.row = !row then consider ca bs.(i - 1);
           incr row
         done)
      a.cells;
    (!best_a, !best_b)

let closest_cells a b = closest_cells_in a (Array.of_list b.cells)

let pp ppf g =
  Format.fprintf ppf "group %d of C_%d: %d cells, cols [%d,%d], rows [%d,%d]"
    g.id g.cap (size g) g.col_lo g.col_hi g.row_lo g.row_hi
