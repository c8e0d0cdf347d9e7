(* Reference outputs (benchmark/expected.json, written by --bless) and
   the checks every op's outputs go through.

   Per design (style, bits) the reference holds exact values — routing
   tracks, physical via cuts and an MD5 of the Ccgrid.Serial text of the
   placement — and the analysis results under a tolerance: f3dB to a
   relative 1e-9, max |INL| and |DNL| to 1e-6.  The tolerance is loose
   enough for a covariance kernel that is not bitwise equal to the
   brute-force pair sum, and tight enough that any change of placement,
   routing or model fails. *)

module Json = Telemetry.Json

exception Mismatch of string

let fail fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

type analysis = { f3db_mhz : float; max_inl : float; max_dnl : float }

type summary = {
  tracks : int;
  via_cuts : int;
  digest : string;
  analysis : analysis option;  (* [None] when the op stops after routing *)
}

let via_cuts (layout : Ccroute.Layout.t) =
  List.fold_left
    (fun acc (v : Ccroute.Layout.via) -> acc + Tech.Parallel.via_count ~p:v.v_p)
    0 layout.vias

let of_layout (layout : Ccroute.Layout.t) =
  { tracks = Ccroute.Plan.total_tracks layout.plan;
    via_cuts = via_cuts layout;
    digest = Digest.to_hex (Digest.string (Ccgrid.Serial.to_string layout.placement));
    analysis = None }

let of_flow (r : Ccdac.Flow.result) =
  { (of_layout r.layout) with
    via_cuts = r.parasitics.total_via_cuts;
    analysis =
      Some { f3db_mhz = r.f3db_mhz; max_inl = r.max_inl; max_dnl = r.max_dnl } }

type mc_ref = {
  mc_bits : int;
  mc_trials : int;
  mc_seed : int;
  stats : Dacmodel.Montecarlo.t;
}

type t = { designs : (string * summary) list; montecarlo : mc_ref list }

let mc_fields (s : Dacmodel.Montecarlo.t) =
  [ ("mean_inl", s.mean_inl); ("mean_dnl", s.mean_dnl);
    ("p95_inl", s.p95_inl); ("p95_dnl", s.p95_dnl);
    ("max_inl", s.max_inl); ("max_dnl", s.max_dnl); ("yield", s.yield) ]

(* --- checks ------------------------------------------------------------ *)

let close ~tol a b =
  Float.equal a b
  || Float.abs (a -. b) <= tol *. Float.max (Float.abs a) (Float.abs b)

let check_close key what ~tol got want =
  if not (close ~tol got want) then
    fail "%s: %s %.17g, reference %.17g (rel tol %g)" key what got want tol

let check_design refs key (s : summary) =
  match List.assoc_opt key refs.designs with
  | None -> fail "%s: no reference output (regenerate with --bless)" key
  | Some r ->
    if s.tracks <> r.tracks then
      fail "%s: %d tracks, reference %d" key s.tracks r.tracks;
    if s.via_cuts <> r.via_cuts then
      fail "%s: %d via cuts, reference %d" key s.via_cuts r.via_cuts;
    if not (String.equal s.digest r.digest) then
      fail "%s: placement digest %s, reference %s" key s.digest r.digest;
    (match (s.analysis, r.analysis) with
     | None, _ -> ()
     | Some _, None -> fail "%s: reference has no analysis results" key
     | Some a, Some b ->
       check_close key "f3db_mhz" ~tol:1e-9 a.f3db_mhz b.f3db_mhz;
       check_close key "max_inl" ~tol:1e-6 a.max_inl b.max_inl;
       check_close key "max_dnl" ~tol:1e-6 a.max_dnl b.max_dnl)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The traced run's layer-by-layer results must be the flow's own,
   bit for bit: otherwise the per-layer split would describe a different
   program than the end-to-end run. *)
let check_faithful key ~(traced : summary) ~(flow : summary) =
  if traced.tracks <> flow.tracks || traced.via_cuts <> flow.via_cuts
     || not (String.equal traced.digest flow.digest)
  then fail "%s: traced layer calls routed differently from Flow.run" key;
  match (traced.analysis, flow.analysis) with
  | Some a, Some b ->
    if not (same_bits a.f3db_mhz b.f3db_mhz && same_bits a.max_inl b.max_inl
            && same_bits a.max_dnl b.max_dnl)
    then fail "%s: traced layer calls analysed differently from Flow.run" key
  | None, _ | Some _, None -> ()

let check_mc_identical (a : Dacmodel.Montecarlo.t) (b : Dacmodel.Montecarlo.t) =
  if a.trials <> b.trials
     || not (List.for_all2 (fun (_, x) (_, y) -> same_bits x y)
               (mc_fields a) (mc_fields b))
  then fail "Monte-Carlo statistics differ between jobs values"

let check_mc_sane ~trials (s : Dacmodel.Montecarlo.t) =
  if s.trials <> trials then fail "Monte-Carlo ran %d trials, asked %d" s.trials trials;
  List.iter
    (fun (name, v) ->
       if not (Float.is_finite v && v >= 0.) then fail "Monte-Carlo %s = %g" name v)
    (mc_fields s);
  if s.yield > 1. || s.p95_inl > s.max_inl || s.p95_dnl > s.max_dnl
     || s.mean_inl > s.max_inl || s.mean_dnl > s.max_dnl
  then fail "Monte-Carlo statistics are inconsistent"

(* Compared only when a reference exists for this exact configuration
   (the default seed); other seeds rely on the jobs=1 recomputation. *)
let check_mc refs ~bits ~trials ~seed (s : Dacmodel.Montecarlo.t) =
  List.iter
    (fun r ->
       if r.mc_bits = bits && r.mc_trials = trials && r.mc_seed = seed then
         List.iter2
           (fun (name, got) (_, want) ->
              check_close "montecarlo" name ~tol:1e-6 got want)
           (mc_fields s) (mc_fields r.stats))
    refs.montecarlo

(* --- file format ------------------------------------------------------- *)

let summary_json s =
  let analysis =
    match s.analysis with
    | None -> []
    | Some a ->
      [ ("f3db_mhz", Json.Num a.f3db_mhz); ("max_inl", Json.Num a.max_inl);
        ("max_dnl", Json.Num a.max_dnl) ]
  in
  Json.Obj
    ([ ("tracks", Json.Num (float_of_int s.tracks));
       ("via_cuts", Json.Num (float_of_int s.via_cuts));
       ("placement_digest", Json.Str s.digest) ]
     @ analysis)

let mc_json r =
  Json.Obj
    ([ ("bits", Json.Num (float_of_int r.mc_bits));
       ("trials", Json.Num (float_of_int r.mc_trials));
       ("seed", Json.Num (float_of_int r.mc_seed)) ]
     @ List.map (fun (k, v) -> (k, Json.Num v)) (mc_fields r.stats))

(* One entry per line, so a re-bless shows up as a readable diff. *)
let save path t =
  let entries render xs = String.concat ",\n" (List.map render xs) in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\n  \"designs\": {\n%s\n  },\n  \"montecarlo\": [\n%s\n  ]\n}\n"
        (entries
           (fun (k, s) ->
              Printf.sprintf "    %s: %s" (Json.escape k) (Json.to_string (summary_json s)))
           t.designs)
        (entries (fun r -> "    " ^ Json.to_string (mc_json r)) t.montecarlo))

let num key j =
  match Option.bind (Json.member key j) Json.to_float with
  | Some v -> v
  | None -> failwith ("expected.json: missing number " ^ key)

let int key j = int_of_float (num key j)

let summary_of_json j =
  { tracks = int "tracks" j;
    via_cuts = int "via_cuts" j;
    digest =
      (match Option.bind (Json.member "placement_digest" j) Json.to_str with
       | Some d -> d
       | None -> failwith "expected.json: missing placement_digest");
    analysis =
      (match Json.member "f3db_mhz" j with
       | None -> None
       | Some _ ->
         Some { f3db_mhz = num "f3db_mhz" j; max_inl = num "max_inl" j;
                max_dnl = num "max_dnl" j }) }

let mc_of_json j =
  { mc_bits = int "bits" j;
    mc_trials = int "trials" j;
    mc_seed = int "seed" j;
    stats =
      { trials = int "trials" j; mean_inl = num "mean_inl" j;
        mean_dnl = num "mean_dnl" j; p95_inl = num "p95_inl" j;
        p95_dnl = num "p95_dnl" j; max_inl = num "max_inl" j;
        max_dnl = num "max_dnl" j; yield = num "yield" j } }

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Json.parse text with
  | Error msg -> failwith (path ^ ": " ^ msg)
  | Ok j ->
    let designs =
      match Json.member "designs" j with
      | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, summary_of_json v)) kvs
      | Some _ | None -> failwith (path ^ ": missing designs")
    in
    let montecarlo =
      match Option.bind (Json.member "montecarlo" j) Json.to_list with
      | Some xs -> List.map mc_of_json xs
      | None -> failwith (path ^ ": missing montecarlo")
    in
    { designs; montecarlo }
