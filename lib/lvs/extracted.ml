type t = {
  shapes : Shape.t array;
  comp_of : int array;
  n_components : int;
  n_contacts : int;
}

(* Union-find with path halving and union by size. *)
let extract (shapes : Shape.t array) =
  let n = Array.length shapes in
  let parent = Array.init n Fun.id in
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
  let contact a b =
    incr contacts;
    union a b
  in
  (* one sweep per layer over boxes that share the shapes' extents; a via
     carries the same shape id into both its layers, which is what closes
     connectivity across the stack *)
  let segs =
    Array.map
      (fun (s : Shape.t) -> Geom.Sweepline.box ~id:s.Shape.id s.Shape.x s.Shape.y)
      shapes
  in
  let layer_segs layer =
    let is_layer = Tech.Layer.equal_name layer in
    let on (s : Shape.t) = List.exists is_layer s.Shape.layers in
    let k = Array.fold_left (fun k s -> if on s then k + 1 else k) 0 shapes in
    if k = 0 then [||]
    else begin
      let out = Array.make k segs.(0) and j = ref 0 in
      Array.iteri
        (fun i s ->
           if on s then begin
             out.(!j) <- segs.(i);
             incr j
           end)
        shapes;
      out
    end
  in
  List.iter
    (fun layer -> Geom.Sweepline.contacts (layer_segs layer) contact)
    [ Tech.Layer.M1; Tech.Layer.M2; Tech.Layer.M3 ];
  (* densify component ids in shape order *)
  let comp_of = Array.make n (-1) and comp_of_root = Array.make n (-1) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let r = find i in
    if comp_of_root.(r) < 0 then begin
      comp_of_root.(r) <- !next;
      incr next
    end;
    comp_of.(i) <- comp_of_root.(r)
  done;
  { shapes; comp_of; n_components = !next; n_contacts = !contacts }
