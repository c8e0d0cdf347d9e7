module Json = Telemetry.Json

(* Appends take an advisory whole-file lock (lockf at offset 0 right
   after open, before any write): concurrent appenders — a parallel
   `make bench`, several processes sharing one ledger — serialise on it, so JSONL lines never interleave partially.
   The lock is released by the close in [finally]; within one process,
   O_APPEND single-write atomicity already keeps domains whole-line. *)
let append ~path record =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       Unix.lockf (Unix.descr_of_out_channel oc) Unix.F_LOCK 0;
       output_string oc (Json.to_string (Record.to_json record));
       output_char oc '\n');
  if Telemetry.Metrics.enabled () then
    Telemetry.Metrics.incr "qor/records_total"

let load ~path =
  let lines =
    In_channel.with_open_text path @@ fun ic ->
    let rec go acc n =
      match In_channel.input_line ic with
      | Some l -> go ((n, l) :: acc) (n + 1)
      | None -> List.rev acc
    in
    go [] 1
  in
  let records, complaints =
    List.fold_left
      (fun (rs, cs) (n, line) ->
         if String.trim line = "" then (rs, cs)
         else
           match Json.parse line with
           | Error e ->
             (rs, Printf.sprintf "%s:%d: unparseable line (%s)" path n e :: cs)
           | Ok j ->
             (match Record.of_json j with
              | Ok r -> (r :: rs, cs)
              | Error e -> (rs, Printf.sprintf "%s:%d: %s" path n e :: cs)))
      ([], []) lines
  in
  let records = List.rev records in
  if Telemetry.Metrics.enabled () then
    Telemetry.Metrics.set "qor/ledger_records"
      (float_of_int (List.length records));
  (records, List.rev complaints)

let latest_by_label records =
  let order = ref [] in
  let latest = Hashtbl.create 16 in
  List.iter
    (fun (r : Record.t) ->
       if not (Hashtbl.mem latest r.Record.label) then
         order := r.Record.label :: !order;
       Hashtbl.replace latest r.Record.label r)
    records;
  List.rev_map (fun l -> Hashtbl.find latest l) !order
