open Ccgrid

type t = {
  cap : int;
  id : int;
  cols : int;
  cells : int array;
  tree_edges : int array;
  col_lo : int;
  col_hi : int;
  row_lo : int;
  row_hi : int;
}

type mode =
  | Connected
  | Straight_runs

let none =
  { cap = -1; id = -1; cols = 1; cells = [||]; tree_edges = [||]; col_lo = 0;
    col_hi = -1; row_lo = 0; row_hi = -1 }

let size g = Array.length g.cells
let edges g = Array.length g.tree_edges / 2
let cell g i = Cell.make ~row:(i / g.cols) ~col:(i mod g.cols)

(* A group of the ids [run.(0 .. n - 1)], ascending, chained in that
   order. *)
let of_run ~cap ~id ~cols run n =
  let cells = Array.sub run 0 n in
  let tree_edges = Array.make (2 * (n - 1)) 0 in
  for e = 0 to n - 2 do
    tree_edges.(2 * e) <- cells.(e);
    tree_edges.((2 * e) + 1) <- cells.(e + 1)
  done;
  let col_lo = ref max_int and col_hi = ref min_int in
  let row_lo = ref max_int and row_hi = ref min_int in
  Array.iter
    (fun i ->
       let row = i / cols and col = i mod cols in
       col_lo := Int.min !col_lo col;
       col_hi := Int.max !col_hi col;
       row_lo := Int.min !row_lo row;
       row_hi := Int.max !row_hi row)
    cells;
  { cap; id; cols; cells; tree_edges; col_lo = !col_lo; col_hi = !col_hi;
    row_lo = !row_lo; row_hi = !row_hi }

(* The maximal straight runs of [ids], listed in (major, minor) order:
   a run goes on while the next cell shares its major coordinate and
   sits one step further along the minor one.  [each run n] receives
   each run in order, in a buffer valid until it returns. *)
let runs_along ids ~major ~minor each =
  let n = Array.length ids in
  let run = Array.make n 0 and len = ref 0 in
  for k = 0 to n - 1 do
    let c = ids.(k) in
    if !len > 0 then begin
      let prev = run.(!len - 1) in
      if not (major prev = major c && minor c = minor prev + 1) then begin
        each run !len;
        len := 0
      end
    end;
    run.(!len) <- c;
    incr len
  done;
  if !len > 0 then each run !len

(* A component's straight runs along the orientation with fewer of them
   (columns on a tie).  Rows: the row-major cells as they are; columns:
   the cells sorted by (col, row).  A run's cells ascend either way. *)
let split_runs g each =
  let cols = g.cols in
  let row i = i / cols and col i = i mod cols in
  let by_col = Array.copy g.cells in
  Array.stable_sort
    (fun a b ->
       match Int.compare (col a) (col b) with
       | 0 -> Int.compare (row a) (row b)
       | c -> c)
    by_col;
  let count ids ~major ~minor =
    let k = ref 0 in
    runs_along ids ~major ~minor (fun _ _ -> incr k);
    !k
  in
  if count by_col ~major:col ~minor:row <= count g.cells ~major:row ~minor:col
  then runs_along by_col ~major:col ~minor:row each
  else runs_along g.cells ~major:row ~minor:col each

(* The groups of every connected component, ordered by (cap, seed) and
   numbered from 0.  Cells are indexed row-major; a counting sort lists
   each capacitor's cells in row-major order, and a BFS starts at each
   one not yet labelled, trying neighbours in [Cell.neighbors] order
   through a queue array and taking the group's bounds as it goes.
   While a BFS runs, [label] holds each reached cell's parent's queue
   position; one backward pass over the queue then writes the tree edges
   in visit order and relabels the cells with the group id.  A last
   row-major pass fills each group's cell array. *)
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
  let queue = Array.make n 0 in
  let tail = ref 0 in
  (* reach cell [j] at (row, col) from the cell at queue position [h] *)
  let visit ~cap ~h j row col =
    if label.(j) < 0 && assign.(row).(col) = cap then begin
      label.(j) <- h;
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
      let tree_edges = Array.make (2 * (!tail - 1)) 0 in
      for k = !tail - 1 downto 1 do
        let j = queue.(k) in
        tree_edges.(2 * (k - 1)) <- queue.(label.(j));
        tree_edges.((2 * k) - 1) <- j;
        label.(j) <- id
      done;
      label.(seed) <- id;
      groups :=
        { cap; id; cols; cells = Array.make !tail 0; tree_edges;
          col_lo = !col_lo; col_hi = !col_hi; row_lo = !row_lo;
          row_hi = !row_hi }
        :: !groups;
      incr count
    end
  done;
  let members = Array.make !count [||] and filled = Array.make !count 0 in
  List.iter (fun g -> members.(g.id) <- g.cells) !groups;
  for i = 0 to n - 1 do
    let id = label.(i) in
    if id >= 0 then begin
      members.(id).(filled.(id)) <- i;
      filled.(id) <- filled.(id) + 1
    end
  done;
  List.rev !groups

let of_placement ?(mode = Connected) (p : Placement.t) =
  match mode with
  | Connected -> components p
  | Straight_runs ->
    let next_id = ref 0 and groups = ref [] in
    List.iter
      (fun g ->
         split_runs g (fun run n ->
             groups := of_run ~cap:g.cap ~id:!next_id ~cols:g.cols run n :: !groups;
             incr next_id))
      (components p);
    List.rev !groups

let of_cap groups k = List.filter (fun g -> g.cap = k) groups

let col_span_overlap a b = a.col_lo <= b.col_hi && b.col_lo <= a.col_hi

(* Tie-break key per Algorithm 1 line 16: distance, then closeness to the
   array bottom, then row-major determinism, compared field by field as
   ints; row-major order is id order.  The key orders all pairs
   strictly.  In one row of [b] only the two cells bracketing a cell's
   column can be closest to it (any other is farther), so for each cell
   of [a] the search visits the rows of [b] within the best distance so
   far and binary-searches [b]'s ascending ids for the bracket.  A row's
   ids are [row * cols .. row * cols + cols - 1], so the search divides
   once per cell of [a] and never per comparison. *)
let closest_cells a b =
  let cols = a.cols in
  let bs = b.cells in
  let n = Array.length bs in
  if Array.length a.cells = 0 || n = 0 then
    invalid_arg "Group.closest_cells: empty group";
  let a0 = a.cells.(0) and b0 = bs.(0) in
  let best_a = ref a0 and best_b = ref b0 in
  let best_d =
    ref (abs ((a0 / cols) - (b0 / cols)) + abs ((a0 mod cols) - (b0 mod cols)))
  and best_s = ref ((a0 / cols) + (b0 / cols)) in
  (* cell [ca] at (ra, col) against cell [cb] of [b] in row [rb] *)
  let consider ca ra col cb rb =
    let d = abs (ra - rb) + abs (col - (cb - (rb * cols))) and s = ra + rb in
    if d < !best_d
       || d = !best_d
          && (s < !best_s
              || s = !best_s && (ca < !best_a || (ca = !best_a && cb < !best_b)))
    then begin
      best_a := ca;
      best_b := cb;
      best_d := d;
      best_s := s
    end
  in
  (* index of the first id of [b] at or after [key] *)
  let lower_bound key =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let m = (!lo + !hi) / 2 in
      if bs.(m) < key then lo := m + 1 else hi := m
    done;
    !lo
  in
  let b_first = bs.(0) / cols and b_last = bs.(n - 1) / cols in
  Array.iter
    (fun ca ->
       let ra = ca / cols in
       let col = ca - (ra * cols) in
       let row = ref (Int.max b_first (ra - !best_d)) in
       while !row <= Int.min b_last (ra + !best_d) do
         let first = !row * cols in
         let i = lower_bound (first + col) in
         if i < n && bs.(i) < first + cols then consider ca ra col bs.(i) !row;
         if i > 0 && bs.(i - 1) >= first then consider ca ra col bs.(i - 1) !row;
         incr row
       done)
    a.cells;
  (!best_a, !best_b)

let pp ppf g =
  Format.fprintf ppf "group %d of C_%d: %d cells, cols [%d,%d], rows [%d,%d]"
    g.id g.cap (size g) g.col_lo g.col_hi g.row_lo g.row_hi
