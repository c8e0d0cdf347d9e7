exception
  Rejected of {
    what : string;                   (* artifact name, e.g. "spiral 8-bit" *)
    diagnostics : Diagnostic.t list; (* full sorted run, not only errors *)
  }

let () =
  Printexc.register_printer (function
    | Rejected { what; diagnostics } ->
      let shown =
        List.filteri (fun i _ -> i < 8) (Diagnostic.errors diagnostics)
      in
      Some
        (Format.asprintf "@[<v>Verify.Engine.Rejected (%s): %s%a@]" what
           (Report.summary_line diagnostics)
           (Format.pp_print_list ~pp_sep:(fun _ () -> ())
              (fun ppf d -> Format.fprintf ppf "@,  %a" Diagnostic.pp d))
           shown)
    | _ -> None)

(* Each stage checker is wrapped in a telemetry span and feeds the
   per-rule fire counters, so both lint runs and flow-gate runs show up
   in traces and metric dumps. *)
let instrumented artifact diags =
  if Telemetry.Metrics.enabled () then begin
    Telemetry.Metrics.incr ~label:artifact "verify/checks_total";
    List.iter
      (fun (d : Diagnostic.t) ->
         Telemetry.Metrics.incr ~label:d.Diagnostic.rule.Rule.id
           "verify/rule_fired_total")
      diags
  end;
  diags

let check_tech tech =
  Telemetry.Span.with_ ~name:"verify.tech" (fun () ->
      instrumented "tech" (Tech_rules.check tech))

let check_style ~bits style =
  Telemetry.Span.with_ ~name:"verify.style" (fun () ->
      instrumented "style" (Style_rules.check ~bits style))

let check_placement ?centroid_tol ?dispersion_bound tech placement =
  Telemetry.Span.with_ ~name:"verify.placement" (fun () ->
      instrumented "placement"
        (Place_rules.check ?centroid_tol ?dispersion_bound tech placement))

let check_layout layout =
  Telemetry.Span.with_ ~name:"verify.layout" (fun () ->
      instrumented "layout" (Route_rules.check layout))

(* Counted like [check_tech] and [check_style], but in no span: the flow
   runs them before its first stage, where a span would read as one
   more stage. *)
let check_inputs ?style tech =
  instrumented "tech" (Tech_rules.check tech)
  @
  match style with
  | None -> []
  | Some (bits, style) -> instrumented "style" (Style_rules.check ~bits style)

let check_built (layout : Ccroute.Layout.t) =
  check_placement layout.Ccroute.Layout.tech layout.Ccroute.Layout.placement
  @ check_layout layout

let check_artifacts (layout : Ccroute.Layout.t) =
  check_tech layout.Ccroute.Layout.tech @ check_built layout

let has_errors diags =
  List.exists (fun d -> Diagnostic.severity d = Rule.Error) diags

let worst diags =
  List.fold_left
    (fun acc d ->
       match acc with
       | None -> Some (Diagnostic.severity d)
       | Some s ->
         if Rule.compare_severity (Diagnostic.severity d) s < 0 then
           Some (Diagnostic.severity d)
         else acc)
    None diags

let lint_placement ?parallel ?(tech = Tech.Process.finfet_12nm) placement =
  let pre = check_tech tech @ check_placement tech placement in
  if has_errors pre then pre
  else begin
    let p_of_cap = Option.value parallel ~default:(fun _ -> 1) in
    let layout = Ccroute.Layout.route tech ~p_of_cap placement in
    pre @ check_layout layout
  end

let lint ?parallel ?(tech = Tech.Process.finfet_12nm) ~bits style =
  let pre = check_tech tech @ check_style ~bits style in
  if has_errors pre then pre
  else begin
    let placement = Ccplace.Style.place ~bits style in
    let place_diags = check_placement tech placement in
    let pre = pre @ place_diags in
    if has_errors pre then pre
    else begin
      let p_of_cap = Option.value parallel ~default:(fun _ -> 1) in
      let layout = Ccroute.Layout.route tech ~p_of_cap placement in
      pre @ check_layout layout
    end
  end

let gate ?(werror = false) diags =
  let disqualifying d =
    match Diagnostic.severity d with
    | Rule.Error -> true
    | Rule.Warning -> werror
    | Rule.Info -> false
  in
  if List.exists disqualifying diags then Error (Diagnostic.sort diags)
  else Ok ()

let assert_clean ?werror ?(what = "artifact") diags =
  match gate ?werror diags with
  | Ok () -> ()
  | Error diagnostics -> raise (Rejected { what; diagnostics })
