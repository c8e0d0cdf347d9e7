type t = {
  name : string;
  attrs : (string * Span.value) list;
  spans : Span.complete list;
  metrics : Metrics.dump;
  stages : (string * float) list;
  mem_stages : (string * Memory.delta) list;
  total_s : float;
  mem_total : Memory.delta option;
}

let empty =
  { name = ""; attrs = []; spans = []; metrics = Metrics.empty; stages = [];
    mem_stages = []; total_s = 0.; mem_total = None }

let record ?(attrs = []) ~name f =
  let (x, metrics), spans =
    Span.collect (fun () ->
        Metrics.collect (fun () -> Span.with_ ~attrs ~name f))
  in
  (* The root is the shallowest span; its direct children are the
     stages.  Depths are absolute (an enclosing CLI span deepens
     everything uniformly), so work relative to the root's depth. *)
  let root_depth =
    List.fold_left (fun acc (s : Span.complete) -> Int.min acc s.Span.depth)
      max_int spans
  in
  let root =
    List.find_opt
      (fun (s : Span.complete) ->
         s.Span.depth = root_depth && String.equal s.Span.name name)
      spans
  in
  let stage_spans =
    List.filter
      (fun (s : Span.complete) ->
         s.Span.depth = root_depth + 1 && s.Span.parent = Some name)
      spans
  in
  let stages =
    List.map
      (fun (s : Span.complete) ->
         (s.Span.name, Clock.to_s s.Span.duration_ns))
      stage_spans
  in
  let mem_stages =
    List.filter_map
      (fun (s : Span.complete) ->
         Option.map (fun d -> (s.Span.name, d)) s.Span.mem)
      stage_spans
  in
  let total_s =
    match root with
    | Some r -> Clock.to_s r.Span.duration_ns
    | None -> 0.
  in
  let mem_total = Option.bind root (fun r -> r.Span.mem) in
  (x, { name; attrs; spans; metrics; stages; mem_stages; total_s; mem_total })

let stage_seconds t name = List.assoc_opt name t.stages

let stage_names t = List.map fst t.stages

let stage_memory t name = List.assoc_opt name t.mem_stages

let memory_stages t = t.mem_stages

let total_memory t = t.mem_total

let stage_alloc_mb t name =
  Option.map Memory.allocated_mb (stage_memory t name)

let seconds_or_0 t name = Option.value ~default:0. (stage_seconds t name)

let place_route_seconds t = seconds_or_0 t "place" +. seconds_or_0 t "route"
