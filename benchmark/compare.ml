(* [main.exe compare BASE NEW]: a verdict per (workload, end-to-end
   metric) between two sets of runs — the JSON lines --out appends —
   against the bounds in BENCHMARK.json:

   - regressed: NEW failed more ops than BASE on that workload, in total
     or on one seed; or the NEW median is worse than the BASE median by
     more than the bound;
   - unresolved: the spread (IQR over median) of either side exceeds the
     bound, unless every NEW run reads better than every BASE run;
   - improved: at least 10 runs pair up by seed, NEW wins at least 9 in
     10 pairs (ties count for neither), and the medians differ by more
     than the BASE IQR in the better direction;
   - unchanged: anything else. *)

module Json = Telemetry.Json

type run = { workload : string; seed : int; failed : int; values : (string * float) list }

let run_of_json j =
  let num key = Option.bind (Json.member key j) Json.to_float in
  match
    (Option.bind (Json.member "workload" j) Json.to_str, num "seed", num "trace", num "failed")
  with
  | Some workload, Some seed, Some 0., Some failed ->
    let values =
      match Json.member "metrics" j with
      | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_float))
          kvs
      | Some _ | None -> []
    in
    Some { workload; seed = int_of_float seed; failed = int_of_float failed; values }
  | _ -> None

let runs_of_lines ~what lines =
  List.filter (fun l -> String.trim l <> "") lines
  |> List.filter_map (fun line ->
      match Json.parse line with
      | Ok j -> run_of_json j
      | Error msg -> failwith (Printf.sprintf "%s: %s" what msg))

let load path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> runs_of_lines ~what:path

(* A failed op gives no latency sample, so fewer successes can make a run
   read faster: any rise in failures is a regression, whatever the times
   say. *)
let more_failed base news =
  let total rs = List.fold_left (fun acc r -> acc + r.failed) 0 rs in
  total news > total base
  || List.exists
       (fun n -> List.exists (fun b -> b.seed = n.seed && n.failed > b.failed) base)
       news

let spread v =
  let m = Float.abs (Stats.median v) in
  if m > 0. then Stats.iqr v /. m else Float.infinity

let verdict (m : Spec.metric) ~bound ~more_failed base news =
  let vb = List.map snd base and vn = List.map snd news in
  let mb = Stats.median vb and mn = Stats.median vn in
  let better y x = if m.lower_is_better then y < x else y > x in
  let worse_by = (if m.lower_is_better then mn -. mb else mb -. mn) /. Float.abs mb in
  let all_better = List.for_all (fun y -> List.for_all (better y) vb) vn in
  let pairs =
    List.filter_map
      (fun (seed, x) -> Option.map (fun y -> (x, y)) (List.assoc_opt seed news))
      base
  in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  if more_failed then "regressed"
  else if (spread vb > bound || spread vn > bound) && not all_better then "unresolved"
  else if worse_by > bound then "regressed"
  else if List.length pairs >= 10 && wins * 10 >= 9 * List.length pairs
          && Float.abs (mn -. mb) > Stats.iqr vb && better mn mb
  then "improved"
  else "unchanged"

type row = {
  workload : string;
  metric : Spec.metric;
  base : (int * float) list;  (* (seed, value) *)
  news : (int * float) list;
  verdict : string option;  (* [None]: missing from one side *)
}

let rows ~(spec : Spec.t) base news =
  List.concat_map
    (fun workload ->
       let of_workload side =
         List.filter (fun (r : run) -> String.equal r.workload workload) side
       in
       let b = of_workload base and n = of_workload news in
       let failing = more_failed b n in
       let values side (m : Spec.metric) =
         List.filter_map
           (fun r -> Option.map (fun v -> (r.seed, v)) (List.assoc_opt m.name r.values))
           side
       in
       List.map
         (fun (m : Spec.metric) ->
            let vb = values b m and vn = values n m in
            let verdict =
              match (vb, vn, m.bound) with
              | _ :: _, _ :: _, Some bound ->
                Some (verdict m ~bound ~more_failed:failing vb vn)
              | _ -> None
            in
            { workload; metric = m; base = vb; news = vn; verdict })
         spec.end_to_end)
    spec.workloads

let main ~spec base_path new_path =
  let base = load base_path and news = load new_path in
  let failed name side =
    List.fold_left (fun acc (r : run) -> if String.equal r.workload name then acc + r.failed else acc) 0 side
  in
  Printf.printf "%-13s %-14s %5s %12s %9s %12s %9s %8s  %s\n" "workload" "metric" "runs"
    "base p50" "spread" "new p50" "spread" "delta" "verdict";
  let rows = rows ~spec base news in
  List.iter
    (fun r ->
       match r.verdict with
       | Some v ->
         let vb = List.map snd r.base and vn = List.map snd r.news in
         let mb = Stats.median vb and mn = Stats.median vn in
         Printf.printf "%-13s %-14s %2d/%-2d %12.6g %8.2f%% %12.6g %8.2f%% %+7.2f%%  %s\n"
           r.workload r.metric.name (List.length vb) (List.length vn) mb (100. *. spread vb)
           mn (100. *. spread vn) (100. *. (mn -. mb) /. Float.abs mb) v
       | None -> Printf.printf "%-13s %-14s missing from one side\n" r.workload r.metric.name)
    rows;
  List.iter
    (fun w ->
       let fb = failed w base and fn = failed w news in
       if fb > 0 || fn > 0 then Printf.printf "%s: failed ops %d in BASE, %d in NEW\n" w fb fn)
    spec.Spec.workloads;
  if List.exists (fun r -> Option.equal String.equal r.verdict (Some "regressed")) rows
  then 1
  else 0
