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

type factor = float array array

let factorize cov =
  let n = Covariance.size cov in
  let m =
    Array.init n (fun j -> Array.init n (fun k -> Covariance.covariance cov j k))
  in
  cholesky m

let size = Array.length

let correlate factor z shifts =
  let n = Array.length factor in
  if Array.length z <> n || Array.length shifts <> n then
    invalid_arg "Gauss.correlate: buffer size is not the factor's";
  for i = 0 to n - 1 do
    let row = factor.(i) in
    let acc = ref 0. in
    for k = 0 to i do
      acc := !acc +. (row.(k) *. z.(k))
    done;
    shifts.(i) <- !acc
  done
