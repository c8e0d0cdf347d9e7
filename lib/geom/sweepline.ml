type seg = {
  sid : int;
  sx : Interval.t;
  sy : Interval.t;
}

let box ~id sx sy = { sid = id; sx; sy }

let segment ~id ~ax ~ay ~bx ~by =
  box ~id (Interval.make ax bx) (Interval.make ay by)

(* Orientation of one shape under the tolerance: degenerate extents are
   points, one live extent is a segment, two is a filled rectangle (not a
   reserved-direction wire — rejected loudly). *)
type class_ =
  | Point
  | Horiz
  | Vert

let[@inline] width (i : Interval.t) = i.Interval.hi -. i.Interval.lo

let classify ~eps s =
  let wx = width s.sx > eps and wy = width s.sy > eps in
  match wx, wy with
  | false, false -> Point
  | true, false -> Horiz
  | false, true -> Vert
  | true, true ->
    invalid_arg
      (Format.asprintf "Sweepline.contacts: shape %d is not axis-aligned %a x %a"
         s.sid Interval.pp s.sx Interval.pp s.sy)

let is_point ~eps s = width s.sx <= eps && width s.sy <= eps

let[@inline] mid (i : Interval.t) = (i.Interval.lo +. i.Interval.hi) /. 2.

(* A collinear pass runs along x over horizontal shapes ([horiz]) or
   along y over vertical ones: [fixed] is the shared coordinate's extent,
   [running] the extent scanned. *)
let[@inline] fixed ~horiz s = if horiz then s.sy else s.sx
let[@inline] running ~horiz s = if horiz then s.sx else s.sy

(* The open set of a collinear scan: a growable buffer of shape indices,
   compacted in place as shapes fall behind the scan front. *)
type buf = {
  mutable items : int array;
  mutable len : int;
}

let push b x =
  if b.len = Array.length b.items then begin
    let items = Array.make (2 * b.len) 0 in
    Array.blit b.items 0 items 0 b.len;
    b.items <- items
  end;
  b.items.(b.len) <- x;
  b.len <- b.len + 1

(* Collinear pass over the shape indices [idx].  Sorted by (fixed
   midpoint, running start), [idx] splits into runs whose fixed midpoint
   lies within [eps] of the run's first (its anchor).  Each shape of a run
   meets the open buffer: [emit o s] for every open [o] still reaching it,
   [drop o p] for every open [o] that does not (at scan position [p]) or
   that outlives its run (at the run's end).  The buffer only holds
   shapes overlapping the scan front, so a scan is O(g + k) after the
   O(g log g) sort. *)
let collinear ~eps ~horiz segs idx opn ~emit ~drop =
  Array.stable_sort
    (fun i j ->
       let a = segs.(i) and b = segs.(j) in
       match Float.compare (mid (fixed ~horiz a)) (mid (fixed ~horiz b)) with
       | 0 ->
         Float.compare (running ~horiz a).Interval.lo
           (running ~horiz b).Interval.lo
       | c -> c)
    idx;
  let len = Array.length idx in
  let start = ref 0 in
  while !start < len do
    let anchor = mid (fixed ~horiz segs.(idx.(!start))) in
    let stop = ref (!start + 1) in
    while
      !stop < len
      && Float.abs (mid (fixed ~horiz segs.(idx.(!stop))) -. anchor) <= eps
    do
      incr stop
    done;
    opn.len <- 0;
    for p = !start to !stop - 1 do
      let s = idx.(p) in
      let front = (running ~horiz segs.(s)).Interval.lo -. eps in
      let kept = ref 0 in
      for q = 0 to opn.len - 1 do
        let o = opn.items.(q) in
        if (running ~horiz segs.(o)).Interval.hi >= front then begin
          emit o s;
          opn.items.(!kept) <- o;
          incr kept
        end
        else drop o p
      done;
      opn.len <- !kept;
      push opn s
    done;
    for q = 0 to opn.len - 1 do
      drop opn.items.(q) !stop
    done;
    start := !stop
  done

(* index of the lowest set bit of a non-zero 32-bit word *)
let ctz32 w =
  let n = ref 0 and w = ref w in
  if !w land 0xffff = 0 then begin n := 16; w := !w lsr 16 end;
  if !w land 0xff = 0 then begin n := !n + 8; w := !w lsr 8 end;
  if !w land 0xf = 0 then begin n := !n + 4; w := !w lsr 4 end;
  if !w land 0x3 = 0 then begin n := !n + 2; w := !w lsr 2 end;
  if !w land 0x1 = 0 then incr n;
  !n

let[@inline] rank_x segs by_y r = segs.(by_y.(r)).sx
let[@inline] rank_y segs by_y r = mid segs.(by_y.(r)).sy

(* Crossing pass: the horizontal shapes [by_y], ranked by y, are active
   over [lo - eps, hi + eps] in x; each vertical shape (the non-points of
   [vp], already in x order) reports the active ranks whose y lies in its
   extent grown by [eps].  Inserts, queries and removals are three sorted
   streams merged by x — inserts before queries before removals at equal
   x, so touching endpoints count as contact.  Active ranks are bits of
   32-bit words: a query binary-searches its band and skips 32 inactive
   ranks per word read. *)
let crossing ~eps segs by_y vp emit =
  let nh = Array.length by_y in
  let ins = Array.init nh Fun.id and rem = Array.init nh Fun.id in
  Array.stable_sort
    (fun a b ->
       Float.compare (rank_x segs by_y a).Interval.lo
         (rank_x segs by_y b).Interval.lo)
    ins;
  Array.stable_sort
    (fun a b ->
       Float.compare (rank_x segs by_y a).Interval.hi
         (rank_x segs by_y b).Interval.hi)
    rem;
  let active = Array.make ((nh + 31) / 32) 0 in
  let ni = ref 0 and nr = ref 0 in
  Array.iter
    (fun v ->
       let sv = segs.(v) in
       if width sv.sy > eps then begin
         let x = mid sv.sx in
         while
           !ni < nh && (rank_x segs by_y ins.(!ni)).Interval.lo -. eps <= x
         do
           let r = ins.(!ni) in
           active.(r lsr 5) <- active.(r lsr 5) lor (1 lsl (r land 31));
           incr ni
         done;
         while
           !nr < nh && (rank_x segs by_y rem.(!nr)).Interval.hi +. eps < x
         do
           let r = rem.(!nr) in
           active.(r lsr 5) <- active.(r lsr 5) land lnot (1 lsl (r land 31));
           incr nr
         done;
         let lo = sv.sy.Interval.lo -. eps and hi = sv.sy.Interval.hi +. eps in
         (* first rank with y >= lo *)
         let a = ref 0 and b = ref nh in
         while !a < !b do
           let m = (!a + !b) / 2 in
           if rank_y segs by_y m < lo then a := m + 1 else b := m
         done;
         let r = ref !a in
         while !r < nh do
           let w = active.(!r lsr 5) lsr (!r land 31) in
           if w = 0 then begin
             let next = (!r lor 31) + 1 in
             r := if next < nh && rank_y segs by_y next <= hi then next else nh
           end
           else begin
             let r' = !r + ctz32 w in
             if rank_y segs by_y r' <= hi then begin
               emit by_y.(r') v;
               r := r' + 1
             end
             else r := nh
           end
         done
       end)
    vp

let contacts ?(eps = 1e-6) segs f =
  let n = Array.length segs in
  let nh = ref 0 and nv = ref 0 in
  Array.iter
    (fun s ->
       match classify ~eps s with
       | Horiz -> incr nh
       | Vert -> incr nv
       | Point -> ())
    segs;
  let nh = !nh and nv = !nv in
  let np = n - nh - nv in
  (* horizontals then points; verticals then points *)
  let hp = Array.make (nh + np) 0 and vp = Array.make (nv + np) 0 in
  let ih = ref 0 and iv = ref 0 and ip = ref 0 in
  Array.iteri
    (fun i s ->
       match classify ~eps s with
       | Horiz -> hp.(!ih) <- i; incr ih
       | Vert -> vp.(!iv) <- i; incr iv
       | Point ->
         hp.(nh + !ip) <- i;
         vp.(nv + !ip) <- i;
         incr ip)
    segs;
  let pair a b = f segs.(a).sid segs.(b).sid in
  let opn = { items = Array.make 16 0; len = 0 } in
  (* horizontal pass, remembering each shape's scan position and the
     position at which it left the open set *)
  let pos = Array.make n 0 and gone = Array.make n 0 in
  collinear ~eps ~horiz:true segs hp opn ~emit:pair
    ~drop:(fun o p -> gone.(o) <- p);
  Array.iteri (fun p i -> pos.(i) <- p) hp;
  (* points ride in both collinear passes: the vertical pass skips a point
     pair the horizontal pass reported, i.e. one whose later shape was
     scanned while the earlier was still open *)
  let reported a b =
    if pos.(a) < pos.(b) then pos.(b) < gone.(a) else pos.(a) < gone.(b)
  in
  collinear ~eps ~horiz:false segs vp opn
    ~emit:(fun o s ->
        if not (is_point ~eps segs.(o) && is_point ~eps segs.(s) && reported o s)
        then pair o s)
    ~drop:(fun _ _ -> ());
  (* horizontals by y: the horizontal pass's order without its points *)
  let by_y = Array.make nh 0 in
  let k = ref 0 in
  Array.iter
    (fun i ->
       if not (is_point ~eps segs.(i)) then begin
         by_y.(!k) <- i;
         incr k
       end)
    hp;
  crossing ~eps segs by_y vp pair
