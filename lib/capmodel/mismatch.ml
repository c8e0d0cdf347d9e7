let correlation (tech : Tech.Process.t) a b =
  let d = Geom.Point.distance a b /. tech.Tech.Process.corr_length in
  Float.exp (d *. Float.log tech.Tech.Process.rho_u)

(* Each cell of [ps] sums its own pairs, then the partial sums are
   added: one accumulator over every pair would carry the rounding of
   millions of additions at 13 bits, more than the kernels this oracle
   is compared against. *)
let pair_sum tech ps qs =
  let total = ref 0. in
  for a = 0 to Array.length ps - 1 do
    let partial = ref 0. in
    for b = 0 to Array.length qs - 1 do
      partial := !partial +. correlation tech ps.(a) qs.(b)
    done;
    total := !total +. !partial
  done;
  !total

let intra_sum tech ps =
  let n = Array.length ps in
  let total = ref 0. in
  for a = 0 to n - 1 do
    let partial = ref 0. in
    for b = a + 1 to n - 1 do
      partial := !partial +. correlation tech ps.(a) ps.(b)
    done;
    total := !total +. !partial
  done;
  !total
