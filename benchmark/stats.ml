(* Order statistics shared by the run metrics and [compare]. *)

(* The q-quantile by the "exclusive" rule of Python's
   [statistics.quantiles]: position q(n+1), linear interpolation between
   the neighbouring order statistics, the lower rank clamped to
   [1, n-1].  For q = i/4 this is exactly [quantiles(xs, n=4)], so the
   spreads printed here match what a post-processing script computes from
   the same runs. *)
let quantile xs q =
  let a = Array.of_list (List.sort Float.compare xs) in
  match Array.length a with
  | 0 -> 0.
  | 1 -> a.(0)
  | n ->
    let pos = q *. float_of_int (n + 1) in
    let j = Int.max 1 (Int.min (n - 1) (int_of_float pos)) in
    let delta = pos -. float_of_int j in
    a.(j - 1) +. (delta *. (a.(j) -. a.(j - 1)))

let median xs = quantile xs 0.5

(* Distance between the first and third quartile. *)
let iqr xs = quantile xs 0.75 -. quantile xs 0.25
