(* Cells are per-scope mutable accumulators keyed by (id, label).

   Domain safety: the list of active scopes is domain-local (a raw
   [Domain.spawn] starts with none; {!Context} propagates a submitter's
   scopes into pool workers), while the stores themselves may be shared
   across domains once captured — so every cell mutation and snapshot
   happens under one global mutex.  The disabled fast path reads only the
   domain-local list and takes no lock. *)

type cell =
  | Ccell of { mutable count : int }
  | Gcell of { mutable value : float }
  | Hcell of {
      bounds : float array;
      counts : int array;       (* length bounds + 1: last = overflow *)
      mutable sum : float;
      mutable total : int;
    }

type store = (string * string option, cell) Hashtbl.t

let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* Active scopes of the calling domain, innermost first. *)
let scopes_key : store list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let scopes () = Domain.DLS.get scopes_key

let enabled () = !(scopes ()) <> []

type scope_ctx = store list

let capture_scopes () = !(scopes ())

let with_scopes ctx f =
  let r = scopes () in
  let saved = !r in
  r := ctx;
  Fun.protect ~finally:(fun () -> r := saved) f

let lookup id =
  match Registry.find id with
  | Some def -> def
  | None -> invalid_arg ("Telemetry.Metrics: unregistered metric id " ^ id)

let kind_error id expected def =
  invalid_arg
    (Printf.sprintf "Telemetry.Metrics: %s is a %s, not a %s" id
       (Metric.kind_name def.Metric.kind)
       expected)

let cell_of store def label =
  let key = (def.Metric.id, label) in
  match Hashtbl.find_opt store key with
  | Some c -> c
  | None ->
    let c =
      match def.Metric.kind with
      | Metric.Counter -> Ccell { count = 0 }
      | Metric.Gauge -> Gcell { value = 0. }
      | Metric.Histogram bounds ->
        Hcell
          { bounds;
            counts = Array.make (Array.length bounds + 1) 0;
            sum = 0.;
            total = 0 }
    in
    Hashtbl.replace store key c;
    c

(* [record] runs [per_store] under the global mutex for every active
   scope; kind errors are raised outside the lock by probing the
   registry first. *)
let record id per_store =
  match !(scopes ()) with
  | [] -> ()
  | active ->
    let def = lookup id in
    locked (fun () -> List.iter (fun store -> per_store store def) active)

let incr ?(n = 1) ?label id =
  record id (fun store def ->
      match cell_of store def label with
      | Ccell c -> c.count <- c.count + n
      | Gcell _ | Hcell _ -> kind_error id "counter" def)

let set ?label id v =
  record id (fun store def ->
      match cell_of store def label with
      | Gcell c -> c.value <- v
      | Ccell _ | Hcell _ -> kind_error id "gauge" def)

(* First bucket whose upper bound admits v (upper-inclusive edges);
   overflow bucket when v exceeds every bound. *)
let bucket_index bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe ?label id v =
  record id (fun store def ->
      match cell_of store def label with
      | Hcell c ->
        let i = bucket_index c.bounds v in
        c.counts.(i) <- c.counts.(i) + 1;
        c.sum <- c.sum +. v;
        c.total <- c.total + 1
      | Ccell _ | Gcell _ -> kind_error id "histogram" def)

(* --- dumps --- *)

type value =
  | Count of int
  | Value of float
  | Dist of {
      bounds : float array;
      counts : int array;
      sum : float;
      total : int;
    }

type point = {
  metric : Metric.t;
  label : string option;
  value : value;
}

type dump = point list

let empty = []

let compare_label a b =
  match a, b with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> String.compare x y

let snapshot (store : store) : dump =
  let pts =
    Hashtbl.fold
      (fun (id, label) cell acc ->
         let metric =
           match Registry.find id with
           | Some def -> def
           | None ->
             (* registration is enforced at write time *)
             failwith ("Telemetry.Metrics.snapshot: unregistered id " ^ id)
         in
         let value =
           match cell with
           | Ccell c -> Count c.count
           | Gcell c -> Value c.value
           | Hcell c ->
             Dist
               { bounds = c.bounds;
                 counts = Array.copy c.counts;
                 sum = c.sum;
                 total = c.total }
         in
         { metric; label; value } :: acc)
      store []
  in
  List.sort
    (fun a b ->
       match String.compare a.metric.Metric.id b.metric.Metric.id with
       | 0 -> compare_label a.label b.label
       | c -> c)
    pts

let collect f =
  let store : store = Hashtbl.create 64 in
  let r = scopes () in
  r := store :: !r;
  Fun.protect
    ~finally:(fun () -> r := List.filter (fun s -> s != store) !r)
    (fun () ->
       let x = f () in
       (* the snapshot locks out writers still holding a captured
          reference to this store (e.g. a pool worker draining) *)
       (x, locked (fun () -> snapshot store)))

let points dump = dump

let find ?label dump id =
  List.find_map
    (fun p ->
       if String.equal p.metric.Metric.id id && compare_label p.label label = 0
       then Some p.value
       else None)
    dump

let counter ?label dump id =
  match find ?label dump id with Some (Count n) -> n | Some _ | None -> 0

let gauge ?label dump id =
  match find ?label dump id with Some (Value v) -> Some v | Some _ | None -> None

(* Quantile estimate from bucket boundaries: find the bucket holding the
   rank-q observation and interpolate linearly inside it.  The first
   bucket's lower edge is 0; the overflow bucket clamps to the last
   declared bound (we know nothing above it). *)
let quantile value q =
  match value with
  | Count _ | Value _ -> None
  | Dist d ->
    if d.total = 0 || Array.length d.bounds = 0 then None
    else if not (Float.is_finite q) || q < 0. || q > 1. then
      invalid_arg "Telemetry.Metrics.quantile: q outside [0, 1]"
    else begin
      let nb = Array.length d.bounds in
      let rank = q *. float_of_int d.total in
      let rec locate i seen =
        if i > nb then (nb, seen)
        else
          let seen' = seen + d.counts.(i) in
          if float_of_int seen' >= rank && d.counts.(i) > 0 then (i, seen)
          else locate (i + 1) seen'
      in
      let i, below = locate 0 0 in
      if i >= nb then Some d.bounds.(nb - 1)
      else
        let lo = if i = 0 then 0. else d.bounds.(i - 1) in
        let hi = d.bounds.(i) in
        let inside = (rank -. float_of_int below) /. float_of_int d.counts.(i) in
        let inside = Float.max 0. (Float.min 1. inside) in
        Some (lo +. ((hi -. lo) *. inside))
    end

(* --- rendering --- *)

let point_name p =
  match p.label with
  | None -> p.metric.Metric.id
  | Some l -> Printf.sprintf "%s{%s}" p.metric.Metric.id l

let value_text unit_ = function
  | Count n -> Printf.sprintf "%d" n
  | Value v ->
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f%s" v (if unit_ = "1" then "" else " " ^ unit_)
    else Printf.sprintf "%.6g%s" v (if unit_ = "1" then "" else " " ^ unit_)
  | Dist d ->
    let buckets =
      String.concat ", "
        (List.mapi
           (fun i c ->
              if i < Array.length d.bounds then
                Printf.sprintf "<=%g: %d" d.bounds.(i) c
              else Printf.sprintf ">%g: %d" d.bounds.(Array.length d.bounds - 1) c)
           (Array.to_list d.counts))
    in
    let q p =
      match quantile (Dist d) p with
      | Some v -> Printf.sprintf "%g" v
      | None -> "-"
    in
    Printf.sprintf "count=%d sum=%g p50=%s p95=%s p99=%s [%s]" d.total d.sum
      (q 0.5) (q 0.95) (q 0.99) buckets

let to_text dump =
  let buf = Buffer.create 512 in
  List.iter
    (fun p ->
       Buffer.add_string buf
         (Printf.sprintf "%-42s %s\n" (point_name p)
            (value_text p.metric.Metric.unit_ p.value)))
    dump;
  Buffer.contents buf

let value_json = function
  | Count n -> Json.Num (float_of_int n)
  | Value v -> Json.Num v
  | Dist d ->
    let buckets =
      List.mapi
        (fun i c ->
           Json.Obj
             [ ( "le",
                 if i < Array.length d.bounds then Json.Num d.bounds.(i)
                 else Json.Str "+Inf" );
               ("count", Json.Num (float_of_int c)) ])
        (Array.to_list d.counts)
    in
    let qjson p =
      match quantile (Dist d) p with Some v -> Json.Num v | None -> Json.Null
    in
    Json.Obj
      [ ("count", Json.Num (float_of_int d.total));
        ("sum", Json.Num d.sum);
        ("p50", qjson 0.5);
        ("p95", qjson 0.95);
        ("p99", qjson 0.99);
        ("buckets", Json.Arr buckets) ]

let to_json dump =
  Json.Arr
    (List.map
       (fun p ->
          Json.Obj
            [ ("id", Json.Str p.metric.Metric.id);
              ( "label",
                match p.label with None -> Json.Null | Some l -> Json.Str l );
              ("kind", Json.Str (Metric.kind_name p.metric.Metric.kind));
              ("unit", Json.Str p.metric.Metric.unit_);
              ("value", value_json p.value) ])
       dump)
