type t = {
  comp_of : int array;
  n_components : int;
  n_contacts : int;
}

(* Union-find with path halving and union by size. *)
let extract (shapes : Shape.t) =
  let n = Shape.count shapes in
  let parent = Array.make n 0 in
  for i = 0 to n - 1 do
    parent.(i) <- i
  done;
  let size = Array.make n 1 in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      parent.(i) <- parent.(p);
      find parent.(i)
    end
  in
  let link small big =
    parent.(small) <- big;
    size.(big) <- size.(big) + size.(small)
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then
      if size.(ra) >= size.(rb) then link rb ra else link ra rb
  in
  let contacts = ref 0 in
  (* one sweep per layer, all in one scratch; box indices map back to
     shape ids, and a via carries the same shape id into both its layers,
     which is what closes connectivity across the stack *)
  let sc = Geom.Sweepline.scratch () in
  Array.iter
    (fun (layer : Shape.layer) ->
       let ids = layer.Shape.ids in
       Geom.Sweepline.contacts sc layer.Shape.boxes (fun a b ->
           incr contacts;
           union ids.(a) ids.(b)))
    shapes.Shape.layers;
  (* densify component ids in shape order, in place: point every shape
     at its root, then replace each root pointer with its component's
     dense id (numbered in the sizes' array, free once linking is done) *)
  for i = 0 to n - 1 do
    parent.(i) <- find i
  done;
  let comp_of_root = size in
  Array.fill comp_of_root 0 n (-1);
  let next = ref 0 in
  for i = 0 to n - 1 do
    let r = parent.(i) in
    if comp_of_root.(r) < 0 then begin
      comp_of_root.(r) <- !next;
      incr next
    end;
    parent.(i) <- comp_of_root.(r)
  done;
  { comp_of = parent; n_components = !next; n_contacts = !contacts }
