type boxes = {
  x0 : int array;
  y0 : int array;
  x1 : int array;
  y1 : int array;
}

(* The open set of a collinear scan: a growable buffer of box indices,
   compacted in place as boxes fall behind the scan front. *)
type buf = {
  mutable items : int array;
  mutable len : int;
}

(* Everything one [contacts] call works in, kept between calls and grown
   to the largest box set served so far.  Only the first slots of each
   array that the current call needs are meaningful. *)
type scratch = {
  (* radix sorts: the keys aligned with the array being sorted, a second
     key and index array to scatter into, one digit's bucket counts, this
     call's digit width, and the keys sorted since the scratch was made *)
  mutable keys : int array;
  mutable keys' : int array;
  mutable idx' : int array;
  mutable count : int array;
  mutable digit : int;
  mutable sort_keys : int;
  (* collinear passes: the major class and the points, the minor class,
     and the open buffer *)
  mutable major : int array;
  mutable minor : int array;
  opn : buf;
  (* crossing pass: the minor boxes' x and y extent by rank, the insert
     and remove streams, and the active-rank bitset *)
  mutable mx : int array;
  mutable my0 : int array;
  mutable my1 : int array;
  mutable ins : int array;
  mutable rem : int array;
  mutable active : int array;
}

let scratch () =
  { keys = [||]; keys' = [||]; idx' = [||]; count = [||]; digit = 1;
    sort_keys = 0; major = [||]; minor = [||];
    opn = { items = Array.make 16 0; len = 0 }; mx = [||]; my0 = [||];
    my1 = [||]; ins = [||]; rem = [||]; active = [||] }

let sort_keys sc = sc.sort_keys

(* [a] if it holds [n] slots, else a fresh array that does *)
let room a n = if Array.length a >= n then a else Array.make n 0

(* --- stable LSD radix sort of index arrays --- *)

(* [set_digit sc range] prepares sorts by keys spanning at most [range].
   The digit is as narrow as the passes that range needs at 11 bits a
   pass allow: a layout under 2^16 units wide sorts in two 8-bit passes,
   with a bucket array small enough for the minor heap. *)
let set_digit sc range =
  let rec bits r = if r = 0 then 0 else 1 + bits (r lsr 1) in
  let b = bits range in
  let passes = Int.max 1 ((b + 10) / 11) in
  sc.digit <- Int.max 1 ((b + passes - 1) / passes);
  sc.count <- room sc.count (1 lsl sc.digit)

(* [sort_by sc idx n key] reorders [idx.(0 .. n-1)] stably by [key.(i)]
   of each index [i]: the keys are gathered once, offset by their
   minimum, and scattered with their indices one digit at a time, low
   digit first, for as many digits as the key range spans. *)
let sort_by sc idx n key =
  sc.sort_keys <- sc.sort_keys + n;
  let lo = ref max_int and hi = ref min_int in
  for p = 0 to n - 1 do
    let v = key.(idx.(p)) in
    sc.keys.(p) <- v;
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  let lo = !lo and range = !hi - !lo in
  let src_k = ref sc.keys and src_i = ref idx in
  let dst_k = ref sc.keys' and dst_i = ref sc.idx' in
  let shift = ref 0 in
  let count = sc.count in
  let buckets = 1 lsl sc.digit in
  while n > 1 && range lsr !shift > 0 do
    let sk = !src_k and si = !src_i and dk = !dst_k and di = !dst_i in
    let sh = !shift in
    Array.fill count 0 buckets 0;
    for p = 0 to n - 1 do
      let d = ((sk.(p) - lo) lsr sh) land (buckets - 1) in
      count.(d) <- count.(d) + 1
    done;
    (* exclusive prefix sums: each bucket's first slot *)
    let sum = ref 0 in
    for d = 0 to buckets - 1 do
      let c = count.(d) in
      count.(d) <- !sum;
      sum := !sum + c
    done;
    for p = 0 to n - 1 do
      let v = sk.(p) in
      let d = ((v - lo) lsr sh) land (buckets - 1) in
      let q = count.(d) in
      count.(d) <- q + 1;
      dk.(q) <- v;
      di.(q) <- si.(p)
    done;
    src_k := dk;
    src_i := di;
    dst_k := sk;
    dst_i := si;
    shift := sh + sc.digit
  done;
  if !src_i != idx then Array.blit !src_i 0 idx 0 n

let push b x =
  if b.len = Array.length b.items then begin
    let items = Array.make (2 * b.len) 0 in
    Array.blit b.items 0 items 0 b.len;
    b.items <- items
  end;
  b.items.(b.len) <- x;
  b.len <- b.len + 1

(* Collinear pass over the box indices [idx.(0 .. len-1)]: [fixed] is the
   shared coordinate (y of a horizontal box, x of a vertical one),
   [lo]/[hi] the extent scanned.  Sorted by (fixed, lo), [idx] splits
   into runs of one fixed coordinate.  Each box of a run meets the open
   buffer: [emit o s] for every open [o] still reaching it, and every
   open box that does not leaves the buffer.  The buffer only holds boxes
   overlapping the scan front, so a scan is O(g + k) after the sort. *)
let collinear sc ~fixed ~lo ~hi idx len ~emit =
  sort_by sc idx len lo;
  sort_by sc idx len fixed;
  let opn = sc.opn in
  let start = ref 0 in
  while !start < len do
    let f = fixed.(idx.(!start)) in
    let stop = ref (!start + 1) in
    while !stop < len && fixed.(idx.(!stop)) = f do
      incr stop
    done;
    opn.len <- 0;
    for p = !start to !stop - 1 do
      let s = idx.(p) in
      let front = lo.(s) in
      let kept = ref 0 in
      for q = 0 to opn.len - 1 do
        let o = opn.items.(q) in
        if hi.(o) >= front then begin
          emit o s;
          opn.items.(!kept) <- o;
          incr kept
        end
      done;
      opn.len <- !kept;
      push opn s
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

(* Crossing pass: the [nm] minor boxes of [sc.minor], in the minor
   collinear pass's order, are ranked by x and active while the sweep is
   inside their y extent; each query, a major box or a point of
   [sc.major.(0 .. nq-1)] already in y order from the major pass, reports
   the active ranks whose x lies in its extent.  Inserts, queries and
   removals are three sorted streams merged by y: inserts before queries
   before removals at equal y, so touching endpoints count as contact.
   Active ranks are bits of 32-bit words: a query binary-searches its
   band and skips 32 inactive ranks per word read. *)
let crossing sc b nm nq emit =
  let minor = sc.minor and major = sc.major in
  sc.mx <- room sc.mx nm;
  sc.my0 <- room sc.my0 nm;
  sc.my1 <- room sc.my1 nm;
  sc.ins <- room sc.ins nm;
  sc.rem <- room sc.rem nm;
  let words = (nm + 31) / 32 in
  sc.active <- room sc.active words;
  let mx = sc.mx and my0 = sc.my0 and my1 = sc.my1 in
  let ins = sc.ins and rem = sc.rem and active = sc.active in
  for r = 0 to nm - 1 do
    let s = minor.(r) in
    mx.(r) <- b.x0.(s);
    my0.(r) <- b.y0.(s);
    my1.(r) <- b.y1.(s);
    ins.(r) <- r;
    rem.(r) <- r
  done;
  sort_by sc ins nm my0;
  sort_by sc rem nm my1;
  Array.fill active 0 words 0;
  let ni = ref 0 and nr = ref 0 in
  (* [first] is the first rank with x >= the last query's x0, and
     [first_y] that query's y *)
  let first = ref 0 and first_y = ref min_int in
  for p = 0 to nq - 1 do
    let q = major.(p) in
    let y = b.y0.(q) in
    while !ni < nm && my0.(ins.(!ni)) <= y do
      let r = ins.(!ni) in
      active.(r lsr 5) <- active.(r lsr 5) lor (1 lsl (r land 31));
      incr ni
    done;
    while !nr < nm && my1.(rem.(!nr)) < y do
      let r = rem.(!nr) in
      active.(r lsr 5) <- active.(r lsr 5) land lnot (1 lsl (r land 31));
      incr nr
    done;
    (* a rank leaves only after it entered, so [!ni - !nr] are active *)
    if !ni > !nr then begin
      let xlo = b.x0.(q) and xhi = b.x1.(q) in
      (* first rank with x >= xlo, bisected in [a, z).  The queries of
         one y come in ascending x0 (the major pass's order), so within
         a y it only moves forward: doubling steps from the last one
         bound it first.  A new y bisects all ranks. *)
      let a = ref 0 and z = ref nm in
      if y = !first_y then begin
        a := !first;
        z := !first;
        if !first < nm && mx.(!first) < xlo then begin
          let step = ref 1 in
          while !a + !step < nm && mx.(!a + !step) < xlo do
            a := !a + !step;
            step := 2 * !step
          done;
          z := Int.min nm (!a + !step);
          incr a
        end
      end;
      while !a < !z do
        let m = (!a + !z) / 2 in
        if mx.(m) < xlo then a := m + 1 else z := m
      done;
      first := !a;
      first_y := y;
      let r = ref !first in
      while !r < nm do
        let w = active.(!r lsr 5) lsr (!r land 31) in
        if w = 0 then begin
          let next = (!r lor 31) + 1 in
          r := if next < nm && mx.(next) <= xhi then next else nm
        end
        else begin
          let r' = !r + ctz32 w in
          if mx.(r') <= xhi then begin
            emit minor.(r') q;
            r := r' + 1
          end
          else r := nm
        end
      done
    end
  done

(* The three passes over boxes whose horizontals are the major class, at
   least as many as the verticals (the minor class).  Points ride the
   major collinear pass alone, which reports major-major, major-point and
   point-point pairs; the minor collinear pass reports minor-minor pairs;
   the crossing reports each minor box with the major boxes and points
   that touch it.  No pair has two of these, so each is reported once. *)
let sweep sc b ~nmin f =
  let n = Array.length b.x0 in
  let nq = n - nmin in
  sc.keys <- room sc.keys nq;
  sc.keys' <- room sc.keys' nq;
  sc.idx' <- room sc.idx' nq;
  sc.major <- room sc.major nq;
  sc.minor <- room sc.minor nmin;
  let major = sc.major and minor = sc.minor in
  let iq = ref 0 and im = ref 0 in
  for i = 0 to n - 1 do
    if b.y1.(i) > b.y0.(i) then begin
      minor.(!im) <- i;
      incr im
    end
    else begin
      major.(!iq) <- i;
      incr iq
    end
  done;
  collinear sc ~fixed:b.y0 ~lo:b.x0 ~hi:b.x1 major nq ~emit:f;
  if nmin > 0 then begin
    collinear sc ~fixed:b.x0 ~lo:b.y0 ~hi:b.y1 minor nmin ~emit:f;
    crossing sc b nmin nq f
  end

let contacts sc b f =
  let n = Array.length b.x0 in
  (* classify the boxes, and bound the coordinates: every sort key is
     one *)
  let nh = ref 0 and nv = ref 0 in
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    let x0 = b.x0.(i) and y0 = b.y0.(i) and x1 = b.x1.(i) and y1 = b.y1.(i) in
    let wx = x1 > x0 and wy = y1 > y0 in
    if wx && wy then
      invalid_arg
        (Printf.sprintf
           "Sweepline.contacts: box %d is extended in both axes [%d, %d] x \
            [%d, %d]"
           i x0 x1 y0 y1)
    else if wx then incr nh
    else if wy then incr nv;
    if x0 < !lo then lo := x0;
    if y0 < !lo then lo := y0;
    if x1 > !hi then hi := x1;
    if y1 > !hi then hi := y1
  done;
  set_digit sc (if n = 0 then 0 else !hi - !lo);
  (* the larger class is the major one: verticals are swept as the
     horizontals of the transposed boxes *)
  if !nv > !nh then
    sweep sc { x0 = b.y0; y0 = b.x0; x1 = b.y1; y1 = b.x1 } ~nmin:!nh f
  else sweep sc b ~nmin:!nv f
