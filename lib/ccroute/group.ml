open Ccgrid

type t = {
  cols : int;
  cap : int array;
  first : int array;
  cells : int array;
  tree_edges : int array;
  col_lo : int array;
  col_hi : int array;
  cap_first : int array;
}

type mode =
  | Connected
  | Straight_runs

let count t = Array.length t.cap
let size t g = t.first.(g + 1) - t.first.(g)
let edges t g = size t g - 1
let edge_first t g = t.first.(g) - g
let row_lo t g = t.cells.(t.first.(g)) / t.cols
let row_hi t g = t.cells.(t.first.(g + 1) - 1) / t.cols
let cell t i = Cell.make ~row:(i / t.cols) ~col:(i mod t.cols)

(* [cap_first] for groups whose capacitors [cap] ascend, over [caps]
   capacitors *)
let cap_offsets ~caps cap =
  let cap_first = Array.make (caps + 1) 0 in
  Array.iter (fun k -> cap_first.(k + 1) <- cap_first.(k + 1) + 1) cap;
  for k = 1 to caps do
    cap_first.(k) <- cap_first.(k) + cap_first.(k - 1)
  done;
  cap_first

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

(* Group [g]'s straight runs along the orientation with fewer of them
   (columns on a tie).  Rows: the row-major cells as they are; columns:
   the cells sorted by (col, row).  A run's cells ascend either way. *)
let split_runs t g each =
  let cols = t.cols in
  let row i = i / cols and col i = i mod cols in
  let cells = Array.sub t.cells t.first.(g) (size t g) in
  let by_col = Array.copy cells in
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
  if count by_col ~major:col ~minor:row <= count cells ~major:row ~minor:col
  then runs_along by_col ~major:col ~minor:row each
  else runs_along cells ~major:row ~minor:col each

(* The groups of every connected component, ordered by (cap, seed) and
   numbered from 0.  Cells are indexed row-major; a counting sort lists
   each capacitor's cells in row-major order, and a BFS starts at each
   one not yet labelled, trying neighbours in [Cell.neighbors] order.
   All the BFSs share one queue, so group [g]'s cells take queue
   positions [first.(g) .. first.(g + 1) - 1], and [label] holds each
   reached cell's parent's queue position (a seed's own).  One forward
   pass over the queue then finds the seeds, takes each group's bounds,
   writes the tree edges in visit order and relabels the cells with
   their group id; a last row-major pass fills each group's cells. *)
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
  let total = start.(caps) in
  let by_cap = Array.make total 0 in
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
  let queue = Array.make total 0 in
  let tail = ref 0 in
  (* reach cell [j] at (row, col) from the cell at queue position [h] *)
  let visit ~cap ~h j row col =
    if label.(j) < 0 && assign.(row).(col) = cap then begin
      label.(j) <- h;
      queue.(!tail) <- j;
      incr tail
    end
  in
  for s = 0 to total - 1 do
    let seed = by_cap.(s) in
    if label.(seed) < 0 then begin
      let cap = assign.(seed / cols).(seed mod cols) in
      let head = ref !tail in
      label.(seed) <- !tail;
      queue.(!tail) <- seed;
      incr tail;
      while !head < !tail do
        let h = !head in
        let i = queue.(h) in
        incr head;
        let row = i / cols in
        let col = i - (row * cols) in
        if row > 0 then visit ~cap ~h (i - cols) (row - 1) col;
        if row < rows - 1 then visit ~cap ~h (i + cols) (row + 1) col;
        if col > 0 then visit ~cap ~h (i - 1) row (col - 1);
        if col < cols - 1 then visit ~cap ~h (i + 1) row (col + 1)
      done
    end
  done;
  (* a seed labels itself with its own position; any other cell with its
     parent's, which comes earlier *)
  let count = ref 0 in
  for q = 0 to total - 1 do
    if label.(queue.(q)) = q then incr count
  done;
  let count = !count in
  let cap = Array.make count 0 and first = Array.make (count + 1) total in
  let col_lo = Array.make count 0 and col_hi = Array.make count 0 in
  let tree_edges = Array.make (2 * (total - count)) 0 in
  let g = ref (-1) in
  for q = 0 to total - 1 do
    let i = queue.(q) in
    let col = i mod cols in
    if label.(i) = q then begin
      incr g;
      first.(!g) <- q;
      cap.(!g) <- assign.(i / cols).(col);
      col_lo.(!g) <- col;
      col_hi.(!g) <- col
    end
    else begin
      let g = !g in
      if col < col_lo.(g) then col_lo.(g) <- col;
      if col > col_hi.(g) then col_hi.(g) <- col;
      (* group [g]'s edges start at pair [first.(g) - g] *)
      let e = q - g - 1 in
      tree_edges.(2 * e) <- queue.(label.(i));
      tree_edges.((2 * e) + 1) <- i
    end;
    label.(i) <- !g
  done;
  (* the queue, read out, holds each group's fill cursor *)
  Array.blit first 0 queue 0 count;
  let cells = Array.make total 0 in
  for i = 0 to n - 1 do
    let g = label.(i) in
    if g >= 0 then begin
      cells.(queue.(g)) <- i;
      queue.(g) <- queue.(g) + 1
    end
  done;
  { cols; cap; first; cells; tree_edges; col_lo; col_hi;
    cap_first = cap_offsets ~caps cap }

(* Each group of [t] split into its straight runs, in group order, each
   run chained in ascending order. *)
let straight_runs t =
  let runs = ref [] in
  for g = count t - 1 downto 0 do
    let mine = ref [] in
    split_runs t g (fun run n -> mine := (t.cap.(g), Array.sub run 0 n) :: !mine);
    runs := List.rev_append !mine !runs
  done;
  let runs = Array.of_list !runs in
  let count = Array.length runs and total = Array.length t.cells in
  let cols = t.cols in
  let cap = Array.make count 0 and first = Array.make (count + 1) total in
  let col_lo = Array.make count 0 and col_hi = Array.make count 0 in
  let cells = Array.make total 0 in
  let tree_edges = Array.make (2 * (total - count)) 0 in
  let at = ref 0 in
  Array.iteri
    (fun g (k, run) ->
       let n = Array.length run in
       cap.(g) <- k;
       first.(g) <- !at;
       Array.blit run 0 cells !at n;
       for e = 0 to n - 2 do
         let pair = !at - g + e in
         tree_edges.(2 * pair) <- run.(e);
         tree_edges.((2 * pair) + 1) <- run.(e + 1)
       done;
       col_lo.(g) <- Array.fold_left (fun acc i -> Int.min acc (i mod cols)) max_int run;
       col_hi.(g) <- Array.fold_left (fun acc i -> Int.max acc (i mod cols)) min_int run;
       at := !at + n)
    runs;
  { cols; cap; first; cells; tree_edges; col_lo; col_hi;
    cap_first = cap_offsets ~caps:(Array.length t.cap_first - 1) cap }

let of_placement ?(mode = Connected) (p : Placement.t) =
  match mode with
  | Connected -> components p
  | Straight_runs -> straight_runs (components p)

let col_span_overlap t a b =
  t.col_lo.(a) <= t.col_hi.(b) && t.col_lo.(b) <= t.col_hi.(a)

(* index of the first of the ascending [cells.(lo .. hi - 1)] at or after
   [key], or [hi] *)
let lower_bound cells lo hi key =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let m = (!lo + !hi) / 2 in
    if cells.(m) < key then lo := m + 1 else hi := m
  done;
  !lo

(* Tie-break key per Algorithm 1 line 16: distance, then closeness to the
   array bottom, then row-major determinism, compared field by field as
   ints; row-major order is id order.  The key orders all pairs
   strictly.  In one row of [b] only the two cells bracketing a cell's
   column can be closest to it (any other is farther), so for each cell
   of [a] the search visits the rows of [b] within the best distance so
   far and binary-searches [b]'s ascending ids for the bracket.  A row's
   ids are [row * cols .. row * cols + cols - 1], so the search divides
   once per cell of [a] and never per comparison.  No closure captures
   the running best, so it stays in registers. *)
let closest_cells t a b out =
  let cols = t.cols and cells = t.cells in
  let a0 = t.first.(a) and a1 = t.first.(a + 1) in
  let b0 = t.first.(b) and b1 = t.first.(b + 1) in
  if a0 = a1 || b0 = b1 then invalid_arg "Group.closest_cells: empty group";
  let ca0 = cells.(a0) and cb0 = cells.(b0) in
  let best_a = ref ca0 and best_b = ref cb0 in
  let best_d =
    ref (abs ((ca0 / cols) - (cb0 / cols)) + abs ((ca0 mod cols) - (cb0 mod cols)))
  and best_s = ref ((ca0 / cols) + (cb0 / cols)) in
  let b_first = cb0 / cols and b_last = cells.(b1 - 1) / cols in
  for ia = a0 to a1 - 1 do
    let ca = cells.(ia) in
    let ra = ca / cols in
    let col = ca - (ra * cols) in
    let row = ref (Int.max b_first (ra - !best_d)) in
    while !row <= Int.min b_last (ra + !best_d) do
      let rb = !row in
      let line = rb * cols in
      let i = lower_bound cells b0 b1 (line + col) in
      (* the bracket: the first cell at or after the column, then the
         last before it, each when in row [rb] *)
      for k = i downto i - 1 do
        if k >= b0 && k < b1 && cells.(k) >= line && cells.(k) < line + cols
        then begin
          let cb = cells.(k) in
          let d = abs (ra - rb) + abs (col - (cb - line)) and s = ra + rb in
          if d < !best_d
             || d = !best_d
                && (s < !best_s
                    || s = !best_s
                       && (ca < !best_a || (ca = !best_a && cb < !best_b)))
          then begin
            best_a := ca;
            best_b := cb;
            best_d := d;
            best_s := s
          end
        end
      done;
      incr row
    done
  done;
  out.(0) <- !best_a;
  out.(1) <- !best_b

let pp t ppf g =
  Format.fprintf ppf "group %d of C_%d: %d cells, cols [%d,%d], rows [%d,%d]"
    g t.cap.(g) (size t g) t.col_lo.(g) t.col_hi.(g) (row_lo t g) (row_hi t g)
