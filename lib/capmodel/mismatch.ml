let correlation (tech : Tech.Process.t) a b =
  let d = Geom.Point.distance a b /. tech.Tech.Process.corr_length in
  Float.exp (d *. Float.log tech.Tech.Process.rho_u)

let pair_sum tech ps qs =
  let total = ref 0. in
  for a = 0 to Array.length ps - 1 do
    for b = 0 to Array.length qs - 1 do
      total := !total +. correlation tech ps.(a) qs.(b)
    done
  done;
  !total

let intra_sum tech ps =
  let n = Array.length ps in
  let total = ref 0. in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      total := !total +. correlation tech ps.(a) ps.(b)
    done
  done;
  !total
