let acceptable r = r.Flow.max_inl <= 0.5 && r.Flow.max_dnl <= 0.5

let pick pool =
  List.fold_left
    (fun best r ->
       match best with
       | None -> Some r
       | Some b -> if r.Flow.f3db_mhz > b.Flow.f3db_mhz then Some r else best)
    None pool

(* best BC: highest f3db among the linearity-clean results, falling back
   to the whole family when none qualify *)
let best_of_family candidates =
  match pick (List.filter acceptable candidates) with
  | Some r -> Some r
  | None -> pick candidates

let paper_methods =
  [ Ccplace.Style.Rowwise; Ccplace.Style.Chessboard; Ccplace.Style.Spiral ]

(* Take the first [n] elements and the rest.  [n <= length xs]. *)
let split_at n xs =
  let rec go n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (n - 1) (x :: acc) rest
  in
  go n [] xs

let row ?tech ?jobs ~bits () =
  Telemetry.Span.with_ ~name:"sweep.row"
    ~attrs:[ ("bits", Telemetry.Span.Int bits) ]
  @@ fun () ->
  (* One flat batch — the three paper methods and the whole BC family
     fan out across the pool together instead of the family waiting for
     the serial prefix to finish. *)
  let styles = paper_methods @ Ccplace.Style.block_family ~bits in
  let results =
    Par.Pool.map_list_exn ?jobs
      (fun style -> Flow.run ?tech ~bits style)
      styles
  in
  let firsts, family = split_at (List.length paper_methods) results in
  match best_of_family family with
  | Some best -> firsts @ [ best ]
  | None -> invalid_arg "Sweep.row: empty BC family"

let parallel_sweep ?tech ?jobs ~bits ~style ks =
  Telemetry.Span.with_ ~name:"sweep.parallel"
    ~attrs:[ ("bits", Telemetry.Span.Int bits) ]
  @@ fun () ->
  List.iter
    (fun k ->
       if k < 1 then invalid_arg "Sweep.parallel_sweep: k must be >= 1")
    ks;
  Par.Pool.map_list_exn ?jobs
    (fun k ->
       let parallel = Ccroute.Layout.msb_parallel ~bits ~p:k in
       let r = Flow.run ?tech ~parallel ~bits style in
       (k, r.Flow.f3db_mhz))
    ks
