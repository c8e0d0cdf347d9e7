open Ccgrid

type t = {
  bits : int;
  grid_rows : int;
  grid_cols : int;
  unit_multiplier : int;
  counts : int array;
  left : int array;           (* cells still to place, per capacitor *)
  grid : int array array;     (* Placement.dummy - 1 encodes "free" *)
}

let free_mark = Placement.dummy - 1

let make ~bits ~rows ~cols ~unit_multiplier ~counts =
  if Array.length counts <> bits + 1 then
    invalid_arg "Builder.make: counts length <> bits+1";
  let total = Array.fold_left ( + ) 0 counts in
  if total > rows * cols then invalid_arg "Builder.make: grid too small";
  { bits;
    grid_rows = rows;
    grid_cols = cols;
    unit_multiplier;
    counts = Array.copy counts;
    left = Array.copy counts;
    grid = Array.make_matrix rows cols free_mark }

let rows t = t.grid_rows
let cols t = t.grid_cols

let is_free t (c : Cell.t) =
  Cell.in_bounds ~rows:t.grid_rows ~cols:t.grid_cols c
  && t.grid.(c.Cell.row).(c.Cell.col) = free_mark

let remaining t k =
  if k < 0 || k > t.bits then invalid_arg "Builder.remaining: bad capacitor id";
  t.left.(k)

let mirror t c = Cell.mirror ~rows:t.grid_rows ~cols:t.grid_cols c

let put t (c : Cell.t) id =
  if not (is_free t c) then
    invalid_arg
      (Format.asprintf "Builder: cell %a is not free" Cell.pp c);
  t.grid.(c.Cell.row).(c.Cell.col) <- id;
  if id >= 0 then begin
    if t.left.(id) <= 0 then invalid_arg "Builder: capacitor budget exhausted";
    t.left.(id) <- t.left.(id) - 1
  end

let assign_pair t c k =
  let m = mirror t c in
  if Cell.equal c m then invalid_arg "Builder.assign_pair: self-mirror cell";
  if remaining t k < 2 then
    invalid_arg "Builder.assign_pair: fewer than 2 cells remain";
  put t c k;
  put t m k

let assign_dummy_pair t c =
  let m = mirror t c in
  if Cell.equal c m then invalid_arg "Builder.assign_dummy_pair: self-mirror cell";
  put t c Placement.dummy;
  put t m Placement.dummy

let assign_split_pair t c ~at ~at_mirror =
  let m = mirror t c in
  if Cell.equal c m then
    invalid_arg "Builder.assign_split_pair: self-mirror cell";
  put t c at;
  put t m at_mirror

let reserve_center_dummy t =
  if t.grid_rows mod 2 = 1 && t.grid_cols mod 2 = 1 then begin
    let c = Cell.make ~row:(t.grid_rows / 2) ~col:(t.grid_cols / 2) in
    if is_free t c then put t c Placement.dummy
  end

let assign_center_single t k =
  if t.grid_rows mod 2 = 0 || t.grid_cols mod 2 = 0 then
    invalid_arg "Builder.assign_center_single: grid has no centre cell";
  let c = Cell.make ~row:(t.grid_rows / 2) ~col:(t.grid_cols / 2) in
  put t c k

type cursor = { mutable rest : Cell.t list }

let cursor order = { rest = order }

(* Cells are never freed again, so a cell found taken stays taken: the
   scan resumes where the previous one stopped. *)
let first_free_in t cur =
  let rec skip = function
    | c :: rest when not (is_free t c) -> skip rest
    | cells -> cells
  in
  cur.rest <- skip cur.rest;
  match cur.rest with
  | c :: _ -> Some c
  | [] -> None

let finish t ~style_name =
  Array.iteri
    (fun k left ->
       if left <> 0 then
         invalid_arg
           (Printf.sprintf "Builder.finish: capacitor %d has %d unplaced cells"
              k left))
    t.left;
  let assign =
    Array.map
      (Array.map (fun id -> if id = free_mark then Placement.dummy else id))
      t.grid
  in
  Placement.create ~bits:t.bits ~rows:t.grid_rows ~cols:t.grid_cols
    ~unit_multiplier:t.unit_multiplier ~counts:t.counts ~assign ~style_name
