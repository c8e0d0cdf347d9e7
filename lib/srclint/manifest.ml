(* The committed .ccdeps manifest: the architecture the typed pass holds
   the tree to.  Line-oriented like .cclint:

     layer <lib> <rank>            # lib/ sublibrary's place in the DAG
     forbid <from> <to> : <why>    # edge banned even if ranks allow it
     pure <lib> : <note>           # library under the purity contract
     trust <Module.Prefix> : <why> # taint/escape traversal stops here

   Ranks order dependencies: an edge lib -> dep is legal only when
   rank(dep) < rank(lib).  [trust] names module prefixes whose internals
   are audited separately (the telemetry mutex+DLS idioms, Par's pool and
   substreams); the interprocedural analyses treat calls into them as
   effect-free boundaries instead of descending. *)

type decl_loc = { dline : int }

type t = {
  file : string;
  layers : (string * int * decl_loc) list;
  forbids : (string * string * string * decl_loc) list;
  pures : (string * decl_loc) list;
  trusted : (string * decl_loc) list;
}

let path = ".ccdeps"

let empty = { file = path; layers = []; forbids = []; pures = []; trusted = [] }

let rank t lib =
  List.find_map
    (fun (l, r, _) -> if l = lib then Some r else None)
    t.layers

let forbidden t ~src ~dst =
  List.find_map
    (fun (f, d, why, _) -> if f = src && d = dst then Some why else None)
    t.forbids

let is_pure t lib = List.exists (fun (l, _) -> l = lib) t.pures

let is_trusted t name =
  List.exists (fun (p, _) -> Names.has_prefix ~prefix:p name) t.trusted

let is_blank s = String.trim s = ""

let is_comment s =
  let s = String.trim s in
  String.length s > 0 && s.[0] = '#'

(* "<directive> <tokens...> [: <reason>]" *)
let parse_line ~file ~line t s =
  let body, reason =
    match String.index_opt s ':' with
    | Some i ->
      ( String.sub s 0 i,
        String.trim (String.sub s (i + 1) (String.length s - i - 1)) )
    | None -> (s, "")
  in
  let tokens =
    String.split_on_char ' ' body |> List.filter (fun tk -> tk <> "")
  in
  let loc = { dline = line } in
  let malformed want =
    Error
      (Printf.sprintf "%s:%d: malformed %s directive (want \"%s\")" file
         line
         (match tokens with tk :: _ -> tk | [] -> "")
         want)
  in
  match tokens with
  | [ "layer"; lib; rank ] -> begin
      match int_of_string_opt rank with
      | Some r -> Ok { t with layers = (lib, r, loc) :: t.layers }
      | None -> malformed "layer <lib> <rank>"
    end
  | "layer" :: _ -> malformed "layer <lib> <rank>"
  | [ "forbid"; src; dst ] ->
    Ok { t with forbids = (src, dst, reason, loc) :: t.forbids }
  | "forbid" :: _ -> malformed "forbid <from> <to> : <reason>"
  | [ "pure"; lib ] -> Ok { t with pures = (lib, loc) :: t.pures }
  | "pure" :: _ -> malformed "pure <lib> : <note>"
  | [ "trust"; prefix ] ->
    Ok { t with trusted = (prefix, loc) :: t.trusted }
  | "trust" :: _ -> malformed "trust <Module.Prefix> : <reason>"
  | d :: _ ->
    Error
      (Printf.sprintf "%s:%d: unknown directive %s (want layer, forbid, \
                       pure or trust)"
         file line d)
  | [] -> Ok t

let parse_string ~file contents =
  let lines = String.split_on_char '\n' contents in
  let rec go n t = function
    | [] ->
      Ok
        { t with
          layers = List.rev t.layers;
          forbids = List.rev t.forbids;
          pures = List.rev t.pures;
          trusted = List.rev t.trusted }
    | l :: rest ->
      if is_blank l || is_comment l then go (n + 1) t rest
      else begin
        match parse_line ~file ~line:n t l with
        | Ok t -> go (n + 1) t rest
        | Error _ as err -> err
      end
  in
  go 1 { empty with file } lines

let load ~root =
  let file = Filename.concat root path in
  if not (Sys.file_exists file) then Ok empty
  else begin
    match In_channel.with_open_bin file In_channel.input_all with
    | contents -> parse_string ~file:path contents
    | exception Sys_error msg -> Error msg
  end

(* Semantic validation: every lib a directive names must exist, and no
   lib may be ranked twice — a misspelt contract contracts nothing. *)
let validate t ~libs =
  let out = ref [] in
  let emit loc fmt =
    Printf.ksprintf
      (fun detail ->
         out :=
           Diagnostic.make ~rule:Typed_rules.manifest_error
             ~file:t.file ~line:loc.dline detail
           :: !out)
      fmt
  in
  let known lib = List.mem lib libs in
  let seen = ref [] in
  List.iter
    (fun (lib, _, loc) ->
       if not (known lib) then
         emit loc "layer names no lib/ sublibrary: %s" lib
       else if List.mem lib !seen then emit loc "duplicate layer for %s" lib
       else seen := lib :: !seen)
    t.layers;
  List.iter
    (fun (src, dst, _, loc) ->
       List.iter
         (fun lib ->
            if not (known lib) then
              emit loc "forbid names no lib/ sublibrary: %s" lib)
         [ src; dst ])
    t.forbids;
  List.iter
    (fun (lib, loc) ->
       if not (known lib) then
         emit loc "pure names no lib/ sublibrary: %s" lib)
    t.pures;
  List.rev !out
