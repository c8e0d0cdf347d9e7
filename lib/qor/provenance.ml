module Json = Telemetry.Json

type t = {
  timestamp_s : float;
  host : string;
  cores : int;
  git_commit : string option;
}

let read_file path =
  try Some (In_channel.with_open_text path In_channel.input_all)
  with Sys_error _ -> None

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

let is_hex s =
  String.length s >= 7
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
       s

(* Resolve a symbolic ref against loose refs first, then packed-refs. *)
let resolve_ref gitdir name =
  match read_file (Filename.concat gitdir name) with
  | Some s ->
    let s = String.trim (first_line s) in
    if is_hex s then Some s else None
  | None ->
    (match read_file (Filename.concat gitdir "packed-refs") with
     | None -> None
     | Some packed ->
       String.split_on_char '\n' packed
       |> List.find_map (fun line ->
           match String.index_opt line ' ' with
           | Some i when String.sub line (i + 1) (String.length line - i - 1)
                         = name ->
             let sha = String.sub line 0 i in
             if is_hex sha then Some sha else None
           | Some _ | None -> None))

let commit_of_gitdir gitdir =
  match read_file (Filename.concat gitdir "HEAD") with
  | None -> None
  | Some head ->
    let head = String.trim (first_line head) in
    (match
       if String.length head > 5 && String.sub head 0 5 = "ref: " then
         resolve_ref gitdir
           (String.trim (String.sub head 5 (String.length head - 5)))
       else if is_hex head then Some head
       else None
     with
     | Some sha -> Some sha
     | None -> None)

let git_commit () =
  let rec up dir depth =
    if depth > 16 then None
    else
      let gitdir = Filename.concat dir ".git" in
      if Sys.file_exists gitdir && Sys.is_directory gitdir then
        commit_of_gitdir gitdir
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else up parent (depth + 1)
  in
  try up (Sys.getcwd ()) 0 with Sys_error _ -> None

let capture () =
  { timestamp_s = Unix.gettimeofday ();
    host = (try Unix.gethostname () with Unix.Unix_error _ -> "unknown");
    cores = Domain.recommended_domain_count ();
    git_commit = git_commit () }

let to_json t =
  Json.Obj
    [ ("timestamp_s", Json.Num t.timestamp_s);
      ("host", Json.Str t.host);
      ("cores", Json.Num (float_of_int t.cores));
      ( "git_commit",
        match t.git_commit with None -> Json.Null | Some s -> Json.Str s ) ]

let of_json j =
  let num name d =
    match Option.bind (Json.member name j) Json.to_float with
    | Some v -> v
    | None -> d
  in
  let str name d =
    match Option.bind (Json.member name j) Json.to_str with
    | Some v -> v
    | None -> d
  in
  { timestamp_s = num "timestamp_s" 0.;
    host = str "host" "";
    cores =
      (let c = num "cores" 0. in
       if Float.is_finite c then int_of_float c else 0);
    git_commit = Option.bind (Json.member "git_commit" j) Json.to_str }

let changelog = "1.33.0"

let server () =
  let p = capture () in
  let commit =
    match p.git_commit with
    | Some c ->
      Printf.sprintf " commit=%s" (String.sub c 0 (min 8 (String.length c)))
    | None -> ""
  in
  Printf.sprintf "ccdac/%s host=%s%s" changelog p.host commit
