let r_bits =
  Diag.rule ~id:"style/bits-range" ~severity:Diag.Error
    ~doc:
      (Printf.sprintf
         "The DAC resolution must lie in [1, %d] (the binary-weight table's \
          supported range)."
         Ccgrid.Weights.max_bits)

let r_core_bits =
  Diag.rule ~id:"style/block-core-bits" ~severity:Diag.Error
    ~doc:
      "A block-chessboard core must hold at least C_0..C_1 and leave at \
       least one MSB outside: core_bits in [1, bits - 1]."

let r_granularity =
  Diag.rule ~id:"style/block-granularity" ~severity:Diag.Error
    ~doc:"A block-chessboard granularity (cells per block side) must be >= 1."

let r_unswept =
  Diag.rule ~id:"style/block-granularity-unswept" ~severity:Diag.Warning
    ~doc:
      "The granularity is outside the set swept by the paper's tables \
       (powers of two capped by the MSB block count); results for it are \
       unstudied."

let rules = [ r_bits; r_core_bits; r_granularity; r_unswept ]

let check ~bits style =
  let out = ref [] in
  let emit rule ?loc fmt =
    Printf.ksprintf (fun d -> out := Diag.make ?loc rule d :: !out) fmt
  in
  let bits_ok = bits >= 1 && bits <= Ccgrid.Weights.max_bits in
  if not bits_ok then
    emit r_bits "bits = %d outside [1, %d]" bits Ccgrid.Weights.max_bits;
  (match style with
   | Ccplace.Style.Spiral | Ccplace.Style.Chessboard | Ccplace.Style.Rowwise ->
     ()
   | Ccplace.Style.Block_chess { core_bits; granularity } ->
     if not (core_bits >= 1 && core_bits <= bits - 1) then
       emit r_core_bits "core_bits = %d outside [1, %d]" core_bits (bits - 1);
     if granularity < 1 then
       emit r_granularity "granularity = %d is below 1" granularity
     else if bits_ok
             && core_bits >= 1
             && core_bits <= bits - 1
             && not
                  (List.mem granularity
                     (Ccplace.Block_chess.granularities ~bits))
     then
       emit r_unswept "granularity = %d not in the swept set {%s}" granularity
         (String.concat ", "
            (List.map string_of_int
               (Ccplace.Block_chess.granularities ~bits))));
  List.rev !out
