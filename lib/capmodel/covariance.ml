type t = {
  matrix : float array array;  (* Cov(j, k), fF^2; symmetric *)
  points : int;                (* Lattice.transform_points, 0 for the pair sum *)
  lookups : int;               (* Lattice.direct_lookups, 0 for the pair sum *)
}

let pairwise_sums tech positions =
  let n = Array.length positions in
  let sums = Array.make_matrix n n 0. in
  for j = 0 to n - 1 do
    let count_j = float_of_int (Array.length positions.(j)) in
    sums.(j).(j) <- count_j +. (2. *. Mismatch.intra_sum tech positions.(j));
    for k = j + 1 to n - 1 do
      let cross = Mismatch.pair_sum tech positions.(j) positions.(k) in
      sums.(j).(k) <- cross;
      sums.(k).(j) <- cross
    done
  done;
  sums

let scaled tech sums ~points ~lookups =
  let sigma2_u =
    let s = Tech.Process.sigma_u tech in
    s *. s
  in
  { matrix = Array.map (Array.map (fun s -> sigma2_u *. s)) sums; points; lookups }

let of_lattice tech lattice =
  scaled tech
    (Lattice.correlation_sums tech lattice)
    ~points:(Lattice.transform_points lattice)
    ~lookups:(Lattice.direct_lookups lattice)

let build tech positions =
  match Lattice.of_positions tech positions with
  | Some lattice -> of_lattice tech lattice
  | None -> scaled tech (pairwise_sums tech positions) ~points:0 ~lookups:0

let of_points tech points =
  match Lattice.of_points tech points with
  | Some lattice -> of_lattice tech lattice
  | None ->
    let positions = Array.map (Array.map (Lattice.position tech)) points in
    scaled tech (pairwise_sums tech positions) ~points:0 ~lookups:0

let size t = Array.length t.matrix

let transform_points t = t.points

let direct_lookups t = t.lookups

let check_index t k =
  if k < 0 || k >= size t then invalid_arg "Covariance: capacitor index out of range"

let variance t k =
  check_index t k;
  t.matrix.(k).(k)

let covariance t j k =
  check_index t j;
  check_index t k;
  t.matrix.(j).(k)

let sigma_weighted t ws =
  let total =
    List.fold_left
      (fun acc (j, wj) ->
         List.fold_left
           (fun acc (k, wk) -> acc +. (wj *. wk *. covariance t j k))
           acc ws)
      0. ws
  in
  sqrt (Float.max 0. total)

let sigma_of_subset t ks =
  let total =
    List.fold_left
      (fun acc j ->
         List.fold_left (fun acc k -> acc +. covariance t j k) acc ks)
      0. ks
  in
  (* numerical noise can push a tiny variance below zero *)
  sqrt (Float.max 0. total)
