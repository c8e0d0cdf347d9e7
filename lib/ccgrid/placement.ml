let dummy = -1

type t = {
  bits : int;
  rows : int;
  cols : int;
  unit_multiplier : int;
  counts : int array;
  assign : int array array;
  style_name : string;
}

let num_caps t = t.bits + 1

let check t =
  if t.bits < 1 then Error "bits must be >= 1"
  else if t.rows < 1 || t.cols < 1 then Error "empty array"
  else if t.unit_multiplier < 1 then Error "unit_multiplier must be >= 1"
  else if Array.length t.counts <> t.bits + 1 then Error "counts length <> bits+1"
  else if Array.length t.assign <> t.rows then Error "assign row count mismatch"
  else if Array.exists (fun r -> Array.length r <> t.cols) t.assign then
    Error "assign col count mismatch"
  else begin
    let seen = Array.make (t.bits + 1) 0 in
    let bad = ref None in
    Array.iter
      (fun row ->
         Array.iter
           (fun id ->
              if id = dummy then ()
              else if id < 0 || id > t.bits then bad := Some id
              else seen.(id) <- seen.(id) + 1)
           row)
      t.assign;
    match !bad with
    | Some id -> Error (Printf.sprintf "invalid capacitor id %d" id)
    | None ->
      let mismatch = ref None in
      Array.iteri
        (fun k expected ->
           if seen.(k) <> expected && !mismatch = None then
             mismatch := Some (k, expected, seen.(k)))
        t.counts;
      (match !mismatch with
       | Some (k, expected, got) ->
         Error
           (Printf.sprintf "capacitor %d has %d cells, expected %d" k got expected)
       | None -> Ok ())
  end

let validate = check

let create ~bits ~rows ~cols ~unit_multiplier ~counts ~assign ~style_name =
  let t = { bits; rows; cols; unit_multiplier; counts; assign; style_name } in
  match check t with
  | Ok () -> t
  | Error msg -> invalid_arg ("Placement.create: " ^ msg)

let check_bounds t (c : Cell.t) =
  if not (Cell.in_bounds ~rows:t.rows ~cols:t.cols c) then
    invalid_arg "Placement: cell out of bounds"

let cap_at t (c : Cell.t) =
  check_bounds t c;
  let id = t.assign.(c.Cell.row).(c.Cell.col) in
  if id = dummy then None else Some id

let cells_matching t keep =
  let out = ref [] in
  for row = t.rows - 1 downto 0 do
    for col = t.cols - 1 downto 0 do
      if keep t.assign.(row).(col) then out := Cell.make ~row ~col :: !out
    done
  done;
  !out

let cells_of t k =
  if k < 0 || k > t.bits then invalid_arg "Placement.cells_of: bad capacitor id";
  cells_matching t (fun id -> id = k)

let dummy_cells t = cells_matching t (fun id -> id = dummy)

let position tech t (c : Cell.t) =
  check_bounds t c;
  let u, v = Cell.centered ~rows:t.rows ~cols:t.cols c in
  (* doubled coordinates: one unit of u/v is half a pitch *)
  Geom.Point.make
    ~x:(float_of_int v *. Tech.Process.cell_pitch_x tech /. 2.)
    ~y:(float_of_int u *. Tech.Process.cell_pitch_y tech /. 2.)

(* x depends on the column only and y on the row only. *)
let axes tech t =
  let at ~row ~col = position tech t (Cell.make ~row ~col) in
  ( Array.init t.cols (fun col -> (at ~row:0 ~col).Geom.Point.x),
    Array.init t.rows (fun row -> (at ~row ~col:0).Geom.Point.y) )

let valid_cap t id = id >= 0 && id <= t.bits

(* Each capacitor's array is sized by a count first and seeded with the
   static origin: made from a freshly allocated point, an array longer
   than 256 words would first force a minor collection.  A point is
   built as a record, not by Geom.Point.make, a call across modules that
   would box both floats first. *)
let positions_by_cap tech t =
  let xs, ys = axes tech t in
  let count = Array.make (num_caps t) 0 in
  Array.iter
    (Array.iter (fun id -> if valid_cap t id then count.(id) <- count.(id) + 1))
    t.assign;
  let points = Array.map (fun n -> Array.make n Geom.Point.origin) count in
  Array.fill count 0 (num_caps t) 0;
  for row = 0 to t.rows - 1 do
    for col = 0 to t.cols - 1 do
      let id = t.assign.(row).(col) in
      if valid_cap t id then begin
        points.(id).(count.(id)) <- { Geom.Point.x = xs.(col); y = ys.(row) };
        count.(id) <- count.(id) + 1
      end
    done
  done;
  points

let position_sums tech t =
  let xs, ys = axes tech t in
  let count = Array.make (num_caps t) 0 in
  let sx = Array.make (num_caps t) 0. and sy = Array.make (num_caps t) 0. in
  Array.iteri
    (fun row ids ->
       Array.iteri
         (fun col id ->
            if valid_cap t id then begin
              count.(id) <- count.(id) + 1;
              sx.(id) <- sx.(id) +. xs.(col);
              sy.(id) <- sy.(id) +. ys.(row)
            end)
         ids)
    t.assign;
  Array.mapi (fun k n -> (n, Geom.Point.make ~x:sx.(k) ~y:sy.(k))) count

let error_of_sum = function
  | 0, _ -> invalid_arg "Placement.centroid_error: capacitor has no cells"
  | n, sum ->
    Geom.Point.distance
      (Geom.Point.scale (1. /. float_of_int n) sum)
      Geom.Point.origin

let centroid_error tech t k =
  if k < 0 || k > t.bits then
    invalid_arg "Placement.centroid_error: bad capacitor id";
  error_of_sum (position_sums tech t).(k)

let max_centroid_error tech t =
  let sums = position_sums tech t in
  let worst = ref 0. in
  for k = 0 to t.bits do
    if t.counts.(k) >= 2 then worst := Float.max !worst (error_of_sum sums.(k))
  done;
  !worst

let pp ppf t =
  Format.fprintf ppf "%s: %d-bit, %dx%d, x%d units" t.style_name t.bits t.rows
    t.cols t.unit_multiplier
