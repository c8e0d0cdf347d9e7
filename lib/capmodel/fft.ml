(* Power-of-two complex FFT in the two halves a convolution needs.

   [forward] is decimation in frequency: it takes its input in natural
   order and leaves the spectrum in bit-reversed order.  [inverse] is
   decimation in time: it takes a bit-reversed spectrum and returns
   natural order.  A convolution multiplies the spectrum pointwise, so it
   never needs the permutation.

   Stages: a radix-2 head at span n (the one a zero-padded input can
   prune), radix-4 stages that fuse two radix-2 levels each, and a
   radix-2 tail at span 2 when the levels left after the head are odd.
   The inverse runs the same stages backwards with conjugate twiddles and
   does not divide by n. *)

let is_power_of_two n = n > 0 && n land (n - 1) = 0

type t = {
  n : int;
  wr : float array;  (* cos (2 pi k / n), k < n *)
  wi : float array;  (* -sin (2 pi k / n): the forward twiddle W^k *)
  quarters : int array;  (* q of every radix-4 stage, largest first *)
  tail : bool;           (* a radix-2 stage at span 2 follows them *)
}

let plan n =
  if not (is_power_of_two n) then invalid_arg "Fft: length must be a power of two";
  (* after the head, blocks of [span] points: a radix-4 stage takes them
     to blocks of span / 4, and blocks of 2 are left to the tail *)
  let rec quarters span = if span >= 4 then (span / 4) :: quarters (span / 4) else [] in
  let rec left span = if span >= 4 then left (span / 4) else span in
  (* filled by loops: Array.init would box every float *)
  let wr = Array.make n 1. and wi = Array.make n 0. in
  for k = 1 to n - 1 do
    let angle = 2. *. Float.pi *. float_of_int k /. float_of_int n in
    wr.(k) <- cos angle;
    wi.(k) <- -.sin angle
  done;
  { n; wr; wi; quarters = Array.of_list (quarters (n / 2)); tail = left (n / 2) = 2 }

let size t = t.n

let reversed t i =
  let r = ref 0 and low = ref 1 and high = ref (t.n lsr 1) in
  while !high > 0 do
    if i land !low <> 0 then r := !r lor !high;
    low := !low lsl 1;
    high := !high lsr 1
  done;
  !r

(* --- one sequence: element k is (re.(k), im.(k)) --- *)

let check t re im =
  if Array.length re <> t.n || Array.length im <> t.n then
    invalid_arg "Fft: re/im length differs from the plan"

(* forward head, pairs (j, j + n/2) with twiddle W^j; with [half] the
   second half is zero and is overwritten unread *)
let head_forward t ~half re im =
  let h = t.n / 2 in
  for j = 0 to h - 1 do
    let wr = t.wr.(j) and wi = t.wi.(j) in
    let ar = re.(j) and ai = im.(j) in
    if half then begin
      re.(j + h) <- (ar *. wr) -. (ai *. wi);
      im.(j + h) <- (ar *. wi) +. (ai *. wr)
    end
    else begin
      let br = re.(j + h) and bi = im.(j + h) in
      re.(j) <- ar +. br;
      im.(j) <- ai +. bi;
      let dr = ar -. br and di = ai -. bi in
      re.(j + h) <- (dr *. wr) -. (di *. wi);
      im.(j + h) <- (dr *. wi) +. (di *. wr)
    end
  done

(* inverse head: (a, b) -> (a + b conj(W^j), a - b conj(W^j)); with
   [half] only the first half is written *)
let head_inverse t ~half re im =
  let h = t.n / 2 in
  for j = 0 to h - 1 do
    let wr = t.wr.(j) and wi = t.wi.(j) in
    let ar = re.(j) and ai = im.(j) in
    let br = re.(j + h) and bi = im.(j + h) in
    let tr = (br *. wr) +. (bi *. wi) and ti = (bi *. wr) -. (br *. wi) in
    re.(j) <- ar +. tr;
    im.(j) <- ai +. ti;
    if not half then begin
      re.(j + h) <- ar -. tr;
      im.(j + h) <- ai -. ti
    end
  done

(* radix-4 forward stage over blocks of 4q: with A = x0 + x2, B = x1 + x3,
   C = x0 - x2, D = x1 - x3 and W = W_4q,
   (x0, x1, x2, x3) -> (A + B, (A - B) W^2j, (C - iD) W^j, (C + iD) W^3j) *)
let quarter_forward t q re im =
  let s = t.n / (4 * q) in
  for j = 0 to q - 1 do
    let w1r = t.wr.(j * s) and w1i = t.wi.(j * s) in
    let w2r = t.wr.(2 * j * s) and w2i = t.wi.(2 * j * s) in
    let w3r = t.wr.(3 * j * s) and w3i = t.wi.(3 * j * s) in
    for b = 0 to s - 1 do
      let i0 = (4 * q * b) + j in
      let i1 = i0 + q in
      let i2 = i1 + q in
      let i3 = i2 + q in
      let x0r = re.(i0) and x0i = im.(i0) and x1r = re.(i1) and x1i = im.(i1) in
      let x2r = re.(i2) and x2i = im.(i2) and x3r = re.(i3) and x3i = im.(i3) in
      let ar = x0r +. x2r and ai = x0i +. x2i and cr = x0r -. x2r and ci = x0i -. x2i in
      let br = x1r +. x3r and bi = x1i +. x3i and dr = x1r -. x3r and di = x1i -. x3i in
      re.(i0) <- ar +. br;
      im.(i0) <- ai +. bi;
      let er = ar -. br and ei = ai -. bi in
      re.(i1) <- (er *. w2r) -. (ei *. w2i);
      im.(i1) <- (er *. w2i) +. (ei *. w2r);
      let fr = cr +. di and fi = ci -. dr in
      re.(i2) <- (fr *. w1r) -. (fi *. w1i);
      im.(i2) <- (fr *. w1i) +. (fi *. w1r);
      let gr = cr -. di and gi = ci +. dr in
      re.(i3) <- (gr *. w3r) -. (gi *. w3i);
      im.(i3) <- (gr *. w3i) +. (gi *. w3r)
    done
  done

(* radix-4 inverse stage: undoes [quarter_forward] times 4 *)
let quarter_inverse t q re im =
  let s = t.n / (4 * q) in
  for j = 0 to q - 1 do
    let w1r = t.wr.(j * s) and w1i = t.wi.(j * s) in
    let w2r = t.wr.(2 * j * s) and w2i = t.wi.(2 * j * s) in
    let w3r = t.wr.(3 * j * s) and w3i = t.wi.(3 * j * s) in
    for b = 0 to s - 1 do
      let i0 = (4 * q * b) + j in
      let i1 = i0 + q in
      let i2 = i1 + q in
      let i3 = i2 + q in
      let z0r = re.(i0) and z0i = im.(i0) and z1r = re.(i1) and z1i = im.(i1) in
      let z2r = re.(i2) and z2i = im.(i2) and z3r = re.(i3) and z3i = im.(i3) in
      let u1r = (z1r *. w2r) +. (z1i *. w2i) and u1i = (z1i *. w2r) -. (z1r *. w2i) in
      let u2r = (z2r *. w1r) +. (z2i *. w1i) and u2i = (z2i *. w1r) -. (z2r *. w1i) in
      let u3r = (z3r *. w3r) +. (z3i *. w3i) and u3i = (z3i *. w3r) -. (z3r *. w3i) in
      let ar = z0r +. u1r and ai = z0i +. u1i and br = z0r -. u1r and bi = z0i -. u1i in
      let cr = u2r +. u3r and ci = u2i +. u3i and er = u2r -. u3r and ei = u2i -. u3i in
      re.(i0) <- ar +. cr;
      im.(i0) <- ai +. ci;
      re.(i2) <- ar -. cr;
      im.(i2) <- ai -. ci;
      re.(i1) <- br -. ei;
      im.(i1) <- bi +. er;
      re.(i3) <- br +. ei;
      im.(i3) <- bi -. er
    done
  done

(* the span-2 stage has only the twiddle 1, and is its own inverse *)
let tail_stage t re im =
  for b = 0 to (t.n / 2) - 1 do
    let i = 2 * b in
    let ar = re.(i) and ai = im.(i) and br = re.(i + 1) and bi = im.(i + 1) in
    re.(i) <- ar +. br;
    im.(i) <- ai +. bi;
    re.(i + 1) <- ar -. br;
    im.(i + 1) <- ai -. bi
  done

let forward ?(half = false) t ~re ~im =
  check t re im;
  head_forward t ~half re im;
  for s = 0 to Array.length t.quarters - 1 do
    quarter_forward t t.quarters.(s) re im
  done;
  if t.tail then tail_stage t re im

let inverse ?(half = false) t ~re ~im =
  check t re im;
  if t.tail then tail_stage t re im;
  for s = Array.length t.quarters - 1 downto 0 do
    quarter_inverse t t.quarters.(s) re im
  done;
  head_inverse t ~half re im

(* --- every column of a matrix at once: element k is the row pair
   (re.(k), im.(k)), and each butterfly runs along whole rows with its
   twiddle hoisted out of the row loop --- *)

let check_rows t re im =
  check t re im;
  let same row = Array.length row = Array.length re.(0) in
  if not (Array.for_all same re && Array.for_all same im) then
    invalid_arg "Fft: rows of different lengths"

let head_forward_rows t ~half ~width re im =
  let h = t.n / 2 in
  for j = 0 to h - 1 do
    let wr = t.wr.(j) and wi = t.wi.(j) in
    let ar = re.(j) and ai = im.(j) and br = re.(j + h) and bi = im.(j + h) in
    if half then
      for c = 0 to width - 1 do
        let xr = ar.(c) and xi = ai.(c) in
        br.(c) <- (xr *. wr) -. (xi *. wi);
        bi.(c) <- (xr *. wi) +. (xi *. wr)
      done
    else
      for c = 0 to width - 1 do
        let xr = ar.(c) and xi = ai.(c) and yr = br.(c) and yi = bi.(c) in
        ar.(c) <- xr +. yr;
        ai.(c) <- xi +. yi;
        let dr = xr -. yr and di = xi -. yi in
        br.(c) <- (dr *. wr) -. (di *. wi);
        bi.(c) <- (dr *. wi) +. (di *. wr)
      done
  done

let head_inverse_rows t ~half re im =
  let h = t.n / 2 in
  for j = 0 to h - 1 do
    let wr = t.wr.(j) and wi = t.wi.(j) in
    let ar = re.(j) and ai = im.(j) and br = re.(j + h) and bi = im.(j + h) in
    if half then
      for c = 0 to Array.length ar - 1 do
        let yr = br.(c) and yi = bi.(c) in
        ar.(c) <- ar.(c) +. ((yr *. wr) +. (yi *. wi));
        ai.(c) <- ai.(c) +. ((yi *. wr) -. (yr *. wi))
      done
    else
      for c = 0 to Array.length ar - 1 do
        let xr = ar.(c) and xi = ai.(c) and yr = br.(c) and yi = bi.(c) in
        let tr = (yr *. wr) +. (yi *. wi) and ti = (yi *. wr) -. (yr *. wi) in
        ar.(c) <- xr +. tr;
        ai.(c) <- xi +. ti;
        br.(c) <- xr -. tr;
        bi.(c) <- xi -. ti
      done
  done

let quarter_forward_rows t q ~width re im =
  let s = t.n / (4 * q) in
  for j = 0 to q - 1 do
    let w1r = t.wr.(j * s) and w1i = t.wi.(j * s) in
    let w2r = t.wr.(2 * j * s) and w2i = t.wi.(2 * j * s) in
    let w3r = t.wr.(3 * j * s) and w3i = t.wi.(3 * j * s) in
    for b = 0 to s - 1 do
      let i0 = (4 * q * b) + j in
      let r0 = re.(i0) and m0 = im.(i0) and r1 = re.(i0 + q) and m1 = im.(i0 + q) in
      let r2 = re.(i0 + (2 * q)) and m2 = im.(i0 + (2 * q)) in
      let r3 = re.(i0 + (3 * q)) and m3 = im.(i0 + (3 * q)) in
      for c = 0 to width - 1 do
        let x0r = r0.(c) and x0i = m0.(c) and x1r = r1.(c) and x1i = m1.(c) in
        let x2r = r2.(c) and x2i = m2.(c) and x3r = r3.(c) and x3i = m3.(c) in
        let ar = x0r +. x2r and ai = x0i +. x2i and cr = x0r -. x2r and ci = x0i -. x2i in
        let br = x1r +. x3r and bi = x1i +. x3i and dr = x1r -. x3r and di = x1i -. x3i in
        r0.(c) <- ar +. br;
        m0.(c) <- ai +. bi;
        let er = ar -. br and ei = ai -. bi in
        r1.(c) <- (er *. w2r) -. (ei *. w2i);
        m1.(c) <- (er *. w2i) +. (ei *. w2r);
        let fr = cr +. di and fi = ci -. dr in
        r2.(c) <- (fr *. w1r) -. (fi *. w1i);
        m2.(c) <- (fr *. w1i) +. (fi *. w1r);
        let gr = cr -. di and gi = ci +. dr in
        r3.(c) <- (gr *. w3r) -. (gi *. w3i);
        m3.(c) <- (gr *. w3i) +. (gi *. w3r)
      done
    done
  done

let quarter_inverse_rows t q re im =
  let s = t.n / (4 * q) in
  for j = 0 to q - 1 do
    let w1r = t.wr.(j * s) and w1i = t.wi.(j * s) in
    let w2r = t.wr.(2 * j * s) and w2i = t.wi.(2 * j * s) in
    let w3r = t.wr.(3 * j * s) and w3i = t.wi.(3 * j * s) in
    for b = 0 to s - 1 do
      let i0 = (4 * q * b) + j in
      let r0 = re.(i0) and m0 = im.(i0) and r1 = re.(i0 + q) and m1 = im.(i0 + q) in
      let r2 = re.(i0 + (2 * q)) and m2 = im.(i0 + (2 * q)) in
      let r3 = re.(i0 + (3 * q)) and m3 = im.(i0 + (3 * q)) in
      for c = 0 to Array.length r0 - 1 do
        let z0r = r0.(c) and z0i = m0.(c) and z1r = r1.(c) and z1i = m1.(c) in
        let z2r = r2.(c) and z2i = m2.(c) and z3r = r3.(c) and z3i = m3.(c) in
        let u1r = (z1r *. w2r) +. (z1i *. w2i) and u1i = (z1i *. w2r) -. (z1r *. w2i) in
        let u2r = (z2r *. w1r) +. (z2i *. w1i) and u2i = (z2i *. w1r) -. (z2r *. w1i) in
        let u3r = (z3r *. w3r) +. (z3i *. w3i) and u3i = (z3i *. w3r) -. (z3r *. w3i) in
        let ar = z0r +. u1r and ai = z0i +. u1i and br = z0r -. u1r and bi = z0i -. u1i in
        let cr = u2r +. u3r and ci = u2i +. u3i and er = u2r -. u3r and ei = u2i -. u3i in
        r0.(c) <- ar +. cr;
        m0.(c) <- ai +. ci;
        r2.(c) <- ar -. cr;
        m2.(c) <- ai -. ci;
        r1.(c) <- br -. ei;
        m1.(c) <- bi +. er;
        r3.(c) <- br +. ei;
        m3.(c) <- bi -. er
      done
    done
  done

let tail_stage_rows t ~width re im =
  for b = 0 to (t.n / 2) - 1 do
    let ar = re.(2 * b) and ai = im.(2 * b) and br = re.((2 * b) + 1) and bi = im.((2 * b) + 1) in
    for c = 0 to width - 1 do
      let xr = ar.(c) and xi = ai.(c) and yr = br.(c) and yi = bi.(c) in
      ar.(c) <- xr +. yr;
      ai.(c) <- xi +. yi;
      br.(c) <- xr -. yr;
      bi.(c) <- xi -. yi
    done
  done

let forward_columns ?(half = false) ?cols t ~re ~im =
  check_rows t re im;
  let width = Array.length re.(0) in
  let width =
    match cols with
    | None -> width
    | Some w when w >= 0 && w <= width -> w
    | Some _ -> invalid_arg "Fft: column bound outside the rows"
  in
  head_forward_rows t ~half ~width re im;
  for s = 0 to Array.length t.quarters - 1 do
    quarter_forward_rows t t.quarters.(s) ~width re im
  done;
  if t.tail then tail_stage_rows t ~width re im

let inverse_columns ?(half = false) t ~re ~im =
  check_rows t re im;
  if t.tail then tail_stage_rows t ~width:(Array.length re.(0)) re im;
  for s = Array.length t.quarters - 1 downto 0 do
    quarter_inverse_rows t t.quarters.(s) re im
  done;
  head_inverse_rows t ~half re im
