let cholesky m =
  let n = Array.length m in
  if Array.exists (fun row -> Array.length row <> n) m then
    invalid_arg "Gauss.cholesky: matrix is not square";
  let l = Array.make_matrix n n 0. in
  (* jitter scaled to the largest diagonal entry guards against
     semidefinite matrices (perfectly correlated capacitors) *)
  let jitter =
    let largest = Array.fold_left (fun acc i -> Float.max acc i)
        0. (Array.init n (fun i -> m.(i).(i)))
    in
    1e-12 *. Float.max largest 1.
  in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref m.(i).(j) in
      for k = 0 to j - 1 do
        s := !s -. (l.(i).(k) *. l.(j).(k))
      done;
      if i = j then begin
        let d = !s +. jitter in
        if d <= 0. then
          invalid_arg "Gauss.cholesky: matrix is not positive semidefinite";
        l.(i).(j) <- sqrt d
      end
      else l.(i).(j) <- !s /. l.(j).(j)
    done
  done;
  l

let standard_normal state =
  (* Box-Muller; u1 in (0, 1] avoids log 0 *)
  let u1 = 1. -. Random.State.float state 1. in
  let u2 = Random.State.float state 1. in
  sqrt (-2. *. Float.log u1) *. cos (2. *. Float.pi *. u2)

type factor = float array array

let factorize cov =
  let n = Covariance.size cov in
  let m =
    Array.init n (fun j -> Array.init n (fun k -> Covariance.covariance cov j k))
  in
  cholesky m

let draw_from factor state =
  let n = Array.length factor in
  let z = Array.init n (fun _ -> standard_normal state) in
  Array.init n
    (fun i ->
       let acc = ref 0. in
       for k = 0 to i do
         acc := !acc +. (factor.(i).(k) *. z.(k))
       done;
       !acc)
