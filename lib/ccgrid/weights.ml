let max_bits = 16

let check_bits bits =
  if bits < 1 || bits > max_bits then
    invalid_arg
      (Printf.sprintf "Weights: bits must be in [1, %d], got %d" max_bits bits)

let unit_counts ~bits =
  check_bits bits;
  Array.init (bits + 1) (fun k -> if k = 0 then 1 else 1 lsl (k - 1))

let total_units ~bits =
  check_bits bits;
  1 lsl bits

let scale counts ~by =
  if by < 1 then invalid_arg "Weights.scale: factor must be >= 1";
  Array.map (fun n -> n * by) counts
