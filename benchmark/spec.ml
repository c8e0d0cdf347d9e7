(* What the harness reads back from BENCHMARK.json: the run length, the
   workload names and, per metric, its unit, direction and regression
   bound. *)

module Json = Telemetry.Json

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float option;  (* share of the base median; end-to-end only *)
}

type t = {
  run_seconds : float;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let str key j =
  match Option.bind (Json.member key j) Json.to_str with
  | Some s -> s
  | None -> failwith ("BENCHMARK.json: missing string " ^ key)

let list key j =
  match Option.bind (Json.member key j) Json.to_list with
  | Some xs -> xs
  | None -> failwith ("BENCHMARK.json: missing list " ^ key)

let metric j =
  { name = str "name" j;
    unit_ = str "unit" j;
    lower_is_better = String.equal (str "better" j) "lower";
    bound = Option.bind (Json.member "bound" j) Json.to_float }

let load path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Error msg -> failwith (path ^ ": " ^ msg)
  | Ok j ->
    { run_seconds =
        (match Option.bind (Json.member "run_seconds" j) Json.to_float with
         | Some s -> s
         | None -> failwith "BENCHMARK.json: missing number run_seconds");
      workloads = List.map (str "name") (list "workloads" j);
      end_to_end = List.map metric (list "end_to_end" j);
      per_layer = List.map metric (list "per_layer" j) }
