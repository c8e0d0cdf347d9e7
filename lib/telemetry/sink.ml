type t = {
  on_span : Span.complete -> unit;
  close : unit -> unit;
}

let event_json (c : Span.complete) =
  let base =
    [ ("name", Json.Str c.Span.name);
      ("cat", Json.Str "ccdac");
      ("ph", Json.Str "X");
      ("ts", Json.Num (Clock.to_us c.Span.start_ns));
      ("dur", Json.Num (Clock.to_us c.Span.duration_ns));
      ("pid", Json.Num 1.);
      ("tid", Json.Num (float_of_int c.Span.domain)) ]
  in
  let mem_args =
    match c.Span.mem with
    | None -> []
    | Some d ->
      [ ("alloc_mb", Json.Num (Memory.allocated_mb d));
        ("major_collections", Json.Num (float_of_int d.Memory.major_collections)) ]
  in
  let args =
    match
      List.map (fun (k, v) -> (k, Span.json_value v)) c.Span.attrs @ mem_args
    with
    | [] -> []
    | kvs -> [ ("args", Json.Obj kvs) ]
  in
  Json.Obj (base @ args)

(* Heap-size counter ("ph": "C") events: one at span entry, one at exit,
   so the trace viewer draws the major-heap sawtooth stage by stage.
   Emitted only for spans that carry a GC delta, and on the dedicated
   counter track tid 0 (OCaml 5's major heap is process-wide, so
   per-domain counters would just disagree about one shared number). *)
let counter_events (c : Span.complete) =
  match c.Span.mem with
  | None -> []
  | Some d ->
    let ev ts heap_w =
      let mb = Memory.words_to_mb (float_of_int heap_w) in
      Json.Obj
        [ ("name", Json.Str "heap_mb");
          ("cat", Json.Str "ccdac");
          ("ph", Json.Str "C");
          ("ts", Json.Num (Clock.to_us ts));
          ("pid", Json.Num 1.);
          ("tid", Json.Num 0.);
          ("args", Json.Obj [ ("heap_mb", Json.Num mb) ]) ]
    in
    [ ev c.Span.start_ns d.Memory.heap_words_before;
      ev (Int64.add c.Span.start_ns c.Span.duration_ns)
        d.Memory.heap_words_after ]

(* Metadata ("ph": "M") events so Perfetto labels the process and thread
   rows: the process is the tool; the root span's domain gets the root's
   name with its attrs (e.g. ["flow.run style=spiral bits=8"]) as its
   track title, and every other domain — a pool worker — is labelled
   ["worker <d>"] so parallel execution reads as parallel tracks. *)
let metadata_events spans =
  let meta ?(tid = 1) name value =
    Json.Obj
      [ ("name", Json.Str name);
        ("ph", Json.Str "M");
        ("pid", Json.Num 1.);
        ("tid", Json.Num (float_of_int tid));
        ("args", Json.Obj [ ("name", Json.Str value) ]) ]
  in
  let root =
    List.fold_left
      (fun best (c : Span.complete) ->
         match best with
         | None -> Some c
         | Some (b : Span.complete) ->
           if c.Span.depth < b.Span.depth
              || (c.Span.depth = b.Span.depth && c.Span.seq < b.Span.seq)
           then Some c
           else best)
      None spans
  in
  let thread_name =
    match root with
    | None -> "idle"
    | Some c ->
      String.concat " "
        (c.Span.name
         :: List.map
              (fun (k, v) ->
                 Format.asprintf "%s=%a" k Span.pp_value v)
              c.Span.attrs)
  in
  let root_domain =
    match root with None -> 1 | Some c -> c.Span.domain
  in
  let domains =
    List.sort_uniq Int.compare
      (List.map (fun (c : Span.complete) -> c.Span.domain) spans)
  in
  meta "process_name" "ccdac"
  :: List.map
       (fun d ->
          meta ~tid:d "thread_name"
            (if d = root_domain then thread_name
             else Printf.sprintf "worker %d" d))
       domains

let events_json spans =
  Json.Obj
    [ ( "traceEvents",
        Json.Arr
          (metadata_events spans
           @ List.map event_json spans
           @ List.concat_map counter_events spans) );
      ("displayTimeUnit", Json.Str "ms") ]

let chrome_trace ~path =
  let buf = ref [] in
  let closed = ref false in
  let on_span c = if not !closed then buf := c :: !buf in
  let close () =
    if not !closed then begin
      closed := true;
      let spans =
        List.sort
          (fun (a : Span.complete) b -> Int.compare a.Span.seq b.Span.seq)
          !buf
      in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Json.to_string (events_json spans)))
    end
  in
  { on_span; close }

let with_ sink f =
  Span.with_sink sink.on_span (fun () ->
      Fun.protect ~finally:sink.close f)
