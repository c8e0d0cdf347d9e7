type sense =
  | Higher_better
  | Lower_better
  | Neither

type kind =
  | Rel of {
      tol : float;
      floor : float;
    }
  | Abs of { tol : float }
  | Exact_count
  | Exact_set

type t = {
  id : string;
  metric : string;
  unit_ : string;
  kind : kind;
  sense : sense;
  severity : Diag.severity;
}

type observation =
  | Scalar of float
  | Count of int
  | Set of string list

type verdict =
  | Improved
  | Unchanged
  | Regressed
  | Incomparable

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Incomparable -> "incomparable"

(* Positive badness = worse.  [Neither] folds both directions into bad,
   so no Exact-like metric ever "improves" past its tolerance. *)
let badness sense delta =
  match sense with
  | Lower_better -> delta
  | Higher_better -> -.delta
  | Neither -> Float.abs delta

(* Inclusive thresholds: exactly-at-tolerance is Unchanged. *)
let classify sense ~tol delta =
  let b = badness sense delta in
  if b > tol then Regressed else if b < -.tol then Improved else Unchanged

let set_diff a b = List.filter (fun x -> not (List.mem x b)) a

let judge policy ~baseline ~current =
  let nan_guard base cur k =
    if Float.is_nan base || Float.is_nan cur then
      ( Incomparable,
        Printf.sprintf "%s: baseline %g, current %g — NaN is never comparable"
          policy.metric base cur )
    else k ()
  in
  match policy.kind, baseline, current with
  | Rel { tol; floor }, Scalar base, Scalar cur ->
    nan_guard base cur @@ fun () ->
    if Float.abs base <= floor && Float.abs cur <= floor then
      ( Unchanged,
        Printf.sprintf "%s: %g -> %g %s, both at or under the %g noise floor"
          policy.metric base cur policy.unit_ floor )
    else begin
      let denom = Float.max (Float.abs base) floor in
      let rel = (cur -. base) /. denom in
      let v = classify policy.sense ~tol rel in
      ( v,
        Printf.sprintf "%s: %g -> %g %s (%+.2f%% vs +-%.2f%% tolerance)"
          policy.metric base cur policy.unit_ (100. *. rel) (100. *. tol) )
    end
  | Abs { tol }, Scalar base, Scalar cur ->
    nan_guard base cur @@ fun () ->
    let v = classify policy.sense ~tol (cur -. base) in
    ( v,
      Printf.sprintf "%s: %g -> %g %s (%+g vs +-%g tolerance)" policy.metric
        base cur policy.unit_ (cur -. base) tol )
  | Exact_count, Count base, Count cur ->
    if base = cur then
      (Unchanged, Printf.sprintf "%s: %d, exact match" policy.metric cur)
    else
      ( Regressed,
        Printf.sprintf "%s: %d -> %d, exact metric drifted" policy.metric
          base cur )
  | Exact_set, Set base, Set cur ->
    let base = List.sort_uniq String.compare base
    and cur = List.sort_uniq String.compare cur in
    if base = cur then
      ( Unchanged,
        Printf.sprintf "%s: {%s}, exact match" policy.metric
          (String.concat ", " cur) )
    else begin
      let appeared = set_diff cur base and vanished = set_diff base cur in
      let part what = function
        | [] -> None
        | ids -> Some (Printf.sprintf "%s {%s}" what (String.concat ", " ids))
      in
      ( Regressed,
        Printf.sprintf "%s: %s" policy.metric
          (String.concat ", "
             (List.filter_map Fun.id
                [ part "appeared" appeared; part "vanished" vanished ])) )
    end
  | (Rel _ | Abs _ | Exact_count | Exact_set), _, _ ->
    ( Incomparable,
      Printf.sprintf "%s: observation shapes disagree with the %s policy"
        policy.metric
        (match policy.kind with
         | Rel _ -> "relative"
         | Abs _ -> "absolute"
         | Exact_count -> "exact-count"
         | Exact_set -> "exact-set") )

(* The committed catalogue.  Electrical metrics are deterministic
   analytic results, so they carry Error severity and tight tolerances.
   Wall-clock time and peak heap have no policy: their floors sat far
   above every committed reading, so they could not fire, and
   performance is benchmark/'s to measure. *)
let catalogue =
  [ { id = "qor/f3db_mhz";
      metric = "f3dB";
      unit_ = "MHz";
      kind = Rel { tol = 0.02; floor = 1e-3 };
      sense = Higher_better;
      severity = Diag.Error };
    { id = "qor/max_inl_lsb";
      metric = "max |INL|";
      unit_ = "LSB";
      kind = Abs { tol = 0.005 };
      sense = Lower_better;
      severity = Diag.Error };
    { id = "qor/max_dnl_lsb";
      metric = "max |DNL|";
      unit_ = "LSB";
      kind = Abs { tol = 0.005 };
      sense = Lower_better;
      severity = Diag.Error };
    { id = "qor/via_cuts";
      metric = "via cuts";
      unit_ = "1";
      kind = Exact_count;
      sense = Neither;
      severity = Diag.Error };
    { id = "qor/bends";
      metric = "bends";
      unit_ = "1";
      kind = Exact_count;
      sense = Neither;
      severity = Diag.Warning };
    { id = "qor/wirelength_um";
      metric = "wirelength";
      unit_ = "um";
      kind = Rel { tol = 0.01; floor = 1e-6 };
      sense = Lower_better;
      severity = Diag.Warning };
    { id = "qor/area_um2";
      metric = "area";
      unit_ = "um^2";
      kind = Rel { tol = 0.001; floor = 1e-6 };
      sense = Lower_better;
      severity = Diag.Warning };
    (* Allocation totals are near-deterministic (same code path, same
       allocations), but GC scheduling varies across machines and
       OCAMLRUNPARAM settings, so the memory metrics are Warnings with
       generous tolerances: allocation within 25% above a 1 MB floor,
       and major collections within +-8. *)
    { id = "qor/alloc_mb_total";
      metric = "allocated";
      unit_ = "MB";
      kind = Rel { tol = 0.25; floor = 1.0 };
      sense = Lower_better;
      severity = Diag.Warning };
    { id = "qor/major_collections";
      metric = "major GCs";
      unit_ = "1";
      kind = Abs { tol = 8. };
      sense = Lower_better;
      severity = Diag.Warning };
    { id = "qor/verify_rules";
      metric = "verify rule ids";
      unit_ = "1";
      kind = Exact_set;
      sense = Neither;
      severity = Diag.Error };
    { id = "qor/lvs_rules";
      metric = "LVS rule ids";
      unit_ = "1";
      kind = Exact_set;
      sense = Neither;
      severity = Diag.Error };
    { id = "qor/tech_hash";
      metric = "tech hash";
      unit_ = "1";
      kind = Exact_set;
      sense = Neither;
      severity = Diag.Warning } ]

let find id = List.find_opt (fun p -> String.equal p.id id) catalogue
