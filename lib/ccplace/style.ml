
type t =
  | Spiral
  | Chessboard
  | Block_chess of {
      core_bits : int;
      granularity : int;
    }
  | Rowwise

let block_default ~bits =
  let granularity =
    List.fold_left
      (fun acc g -> if g <= 2 then Int.max acc g else acc)
      1 (Block_chess.granularities ~bits)
  in
  Block_chess { core_bits = Block_chess.default_core_bits ~bits; granularity }

let block_family ~bits =
  let core_bits = Block_chess.default_core_bits ~bits in
  List.map
    (fun granularity -> Block_chess { core_bits; granularity })
    (Block_chess.granularities ~bits)

let name = function
  | Spiral -> "spiral"
  | Chessboard -> "chessboard"
  | Block_chess { core_bits; granularity } ->
    Printf.sprintf "block-chess(core=%d,g=%d)" core_bits granularity
  | Rowwise -> "rowwise"

let place ~bits style =
  Telemetry.Span.with_ ~name:"place.builder"
    ~attrs:
      [ ("style", Telemetry.Span.Str (name style));
        ("bits", Telemetry.Span.Int bits) ]
    (fun () ->
       let p =
         match style with
         | Spiral -> Spiral.place ~bits
         | Chessboard -> Chessboard.place ~bits
         | Block_chess { core_bits; granularity } ->
           Block_chess.place ~bits ~core_bits ~granularity ()
         | Rowwise -> Rowwise.place ~bits
       in
       Telemetry.Metrics.set "place/cells"
         (float_of_int (p.Ccgrid.Placement.rows * p.Ccgrid.Placement.cols));
       p)

let label = function
  | Spiral -> "S"
  | Chessboard -> "[7]"
  | Block_chess _ -> "BC"
  | Rowwise -> "[1]"

let equal a b =
  match a, b with
  | Spiral, Spiral | Chessboard, Chessboard | Rowwise, Rowwise -> true
  | Block_chess x, Block_chess y ->
    x.core_bits = y.core_bits && x.granularity = y.granularity
  | (Spiral | Chessboard | Block_chess _ | Rowwise), _ -> false

let pp ppf t = Format.pp_print_string ppf (name t)
