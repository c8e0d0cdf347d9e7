let is_power_of_two n = n > 0 && n land (n - 1) = 0

let check re im =
  let n = Array.length re in
  if Array.length im <> n then invalid_arg "Fft: re/im length mismatch";
  if not (is_power_of_two n) then invalid_arg "Fft: length must be a power of two";
  n

(* iterative Cooley-Tukey with bit-reversal permutation *)
let fft ~re ~im =
  let n = check re im in
  if n > 1 then begin
    (* bit reversal *)
    let j = ref 0 in
    for i = 0 to n - 2 do
      if i < !j then begin
        let tr = re.(i) in
        re.(i) <- re.(!j);
        re.(!j) <- tr;
        let ti = im.(i) in
        im.(i) <- im.(!j);
        im.(!j) <- ti
      end;
      let m = ref (n lsr 1) in
      while !m land !j <> 0 do
        j := !j lxor !m;
        m := !m lsr 1
      done;
      j := !j lor !m
    done;
    (* butterflies: each stage walks its twiddle factors once (by the
       rotation recurrence) and applies each to every block *)
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      let angle = -2. *. Float.pi /. float_of_int !len in
      let wr = cos angle and wi = sin angle in
      let cr = ref 1. and ci = ref 0. in
      for k = 0 to half - 1 do
        let i = ref k in
        while !i < n do
          let a = !i and b = !i + half in
          let tr = (re.(b) *. !cr) -. (im.(b) *. !ci) in
          let ti = (re.(b) *. !ci) +. (im.(b) *. !cr) in
          re.(b) <- re.(a) -. tr;
          im.(b) <- im.(a) -. ti;
          re.(a) <- re.(a) +. tr;
          im.(a) <- im.(a) +. ti;
          i := !i + !len
        done;
        let nr = (!cr *. wr) -. (!ci *. wi) in
        ci := (!cr *. wi) +. (!ci *. wr);
        cr := nr
      done;
      len := !len * 2
    done
  end

let ifft ~re ~im =
  let n = check re im in
  for i = 0 to n - 1 do
    im.(i) <- -.im.(i)
  done;
  fft ~re ~im;
  let inv = 1. /. float_of_int n in
  for i = 0 to n - 1 do
    re.(i) <- re.(i) *. inv;
    im.(i) <- -.im.(i) *. inv
  done
