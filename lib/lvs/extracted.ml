type t = {
  comp_of : int array;
  n_components : int;
  n_contacts : int;
  sort_keys : int;
}

(* --- the plate lattice --- *)

(* One axis of the lattice: the plate coordinates in ascending order,
   [at.(i)] being the column (or row) whose coordinate is [v.(i)], and a
   table of buckets [width] units wide from [v.(0)]: [table.(b)] is the
   first [i] with [v.(i) >= v.(0) + b * width]. *)
type axis = {
  v : int array;
  at : int array;
  width : int;
  table : int array;
}

(* About two buckets per coordinate, so that on a lattice of near-even
   pitch a bucket holds at most one and a lower bound scans one or two
   entries past its bucket's start. *)
let axis coords =
  let n = Array.length coords in
  let at = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare coords.(a) coords.(b)) at;
  let v = Array.map (fun i -> coords.(i)) at in
  if n = 0 then { v; at; width = 1; table = [||] }
  else begin
    let buckets = 2 * n in
    let width = ((v.(n - 1) - v.(0)) / buckets) + 1 in
    let table = Array.make buckets n in
    let i = ref 0 in
    for b = 0 to buckets - 1 do
      let start = v.(0) + (b * width) in
      while !i < n && v.(!i) < start do
        incr i
      done;
      table.(b) <- !i
    done;
    { v; at; width; table }
  end

(* the first [i] with [a.v.(i) >= q]; the bucket of [q] starts at or
   before it *)
let lower_bound a q =
  let v = a.v in
  let n = Array.length v in
  if n = 0 || q <= v.(0) then 0
  else if q > v.(n - 1) then n
  else begin
    let i = ref a.table.((q - v.(0)) / a.width) in
    while v.(!i) < q do
      incr i
    done;
    !i
  end

type lattice = {
  xs : axis;
  ys : axis;
  cols : int;
}

let lattice (shapes : Shape.t) =
  { xs = axis shapes.Shape.col_x; ys = axis shapes.Shape.row_y;
    cols = shapes.Shape.cols }

(* [in_box lat plates id x0 y0 x1 y1 f] calls [f id p] for each plate
   [p] of [plates] (per cell, -1 for none) on a lattice point inside
   [x0, x1] × [y0, y1]: the columns of the x extent crossed with the
   rows of the y extent, each run found by a lower bound. *)
let in_box lat plates id x0 y0 x1 y1 f =
  let xs = lat.xs and ys = lat.ys in
  let nx = Array.length xs.v and ny = Array.length ys.v in
  let c0 = lower_bound xs x0 in
  if c0 < nx && xs.v.(c0) <= x1 then begin
    let r = ref (lower_bound ys y0) in
    while !r < ny && ys.v.(!r) <= y1 do
      let row = ys.at.(!r) * lat.cols in
      let c = ref c0 in
      while !c < nx && xs.v.(!c) <= x1 do
        let p = plates.(row + xs.at.(!c)) in
        if p >= 0 then f id p;
        incr c
      done;
      incr r
    done
  end

(* each box of [layer] (shape [id]) with each plate inside it *)
let covered lat plates (layer : Shape.layer) f =
  let ids = layer.Shape.ids and b = layer.Shape.boxes in
  for i = 0 to Array.length ids - 1 do
    in_box lat plates ids.(i) b.Geom.Sweepline.x0.(i) b.Geom.Sweepline.y0.(i)
      b.Geom.Sweepline.x1.(i) b.Geom.Sweepline.y1.(i) f
  done

let repeats a =
  let r = ref false in
  for i = 1 to Array.length a.v - 1 do
    if a.v.(i) = a.v.(i - 1) then r := true
  done;
  !r

(* each pair of plates on one lattice point, which only a lattice that
   repeats a coordinate has: every plate meets the plates of higher id
   at its own point *)
let coincident (shapes : Shape.t) lat plates f =
  if repeats lat.xs || repeats lat.ys then begin
    let cols = lat.cols in
    let higher p q = if q > p then f p q in
    Array.iteri
      (fun cell p ->
         if p >= 0 then begin
           let x = shapes.Shape.col_x.(cell mod cols)
           and y = shapes.Shape.row_y.(cell / cols) in
           in_box lat plates p x y x y higher
         end)
      plates
  end

(* --- contacts --- *)

(* Every contact of one layer, as shape ids: the sweep's pairs among its
   wires and vias, then each of those with the plates it covers, then
   the plates that coincide.  Pads lie on M1, top pads on M2. *)
let layer_contacts sc lat (shapes : Shape.t) name f =
  let layer = Shape.layer shapes name in
  let ids = layer.Shape.ids in
  Geom.Sweepline.contacts sc layer.Shape.boxes (fun a b -> f ids.(a) ids.(b));
  let plate_contacts plates =
    covered lat plates layer f;
    coincident shapes lat plates f
  in
  match name with
  | Tech.Layer.M1 -> plate_contacts shapes.Shape.pads
  | Tech.Layer.M2 -> plate_contacts shapes.Shape.top_pads
  | Tech.Layer.M3 -> ()

let contacts shapes name f =
  layer_contacts (Geom.Sweepline.scratch ()) (lattice shapes) shapes name f

(* Union-find with path halving, linking the larger root under the
   smaller: every shape's parent is at most its own id, and a component's
   root is its lowest shape id. *)
let extract (shapes : Shape.t) =
  let n = Shape.count shapes in
  let parent = Array.make n 0 in
  for i = 0 to n - 1 do
    parent.(i) <- i
  done;
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      parent.(i) <- parent.(p);
      find parent.(i)
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra < rb then parent.(rb) <- ra else if rb < ra then parent.(ra) <- rb
  in
  let contacts = ref 0 in
  (* all three layers in one sweep scratch and one lattice; a via carries
     the same shape id into both its layers, which is what closes
     connectivity across the stack *)
  let sc = Geom.Sweepline.scratch () and lat = lattice shapes in
  List.iter
    (fun name ->
       layer_contacts sc lat shapes name (fun a b ->
           incr contacts;
           union a b))
    Tech.Layer.[ M1; M2; M3 ];
  (* number the components in shape order, in place: a root takes the
     next number, and any other shape copies the number of its parent,
     a lower id already numbered *)
  let next = ref 0 in
  for i = 0 to n - 1 do
    let p = parent.(i) in
    if p = i then begin
      parent.(i) <- !next;
      incr next
    end
    else parent.(i) <- parent.(p)
  done;
  { comp_of = parent; n_components = !next; n_contacts = !contacts;
    sort_keys = Geom.Sweepline.sort_keys sc }
