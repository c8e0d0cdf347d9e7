(* Discovery and loading of the .cmt Typedtrees dune leaves under
   _build/default/lib/<dir>/.<libname>.objs/byte/, checked against the
   sources on disk.  Each Implementation cmt is summarized immediately;
   the result is the whole-program universe the analyses run on, plus a
   meta/cmt-error for every part of the tree the cmts cannot vouch for:
   a library with no cmt at all, a module whose cmt is missing,
   unreadable or built from another version of its source, and a cmt
   whose source is gone. *)

type universe = {
  libs : string list;  (* lib/ dir names with a dune file, sorted *)
  mods : Summary.moddef list;
  lib_of_module : string -> string option;
      (* canonical head module ("Ccplace") -> lib dir ("ccplace") *)
  errors : Diagnostic.t list;
}

type built = {
  source : string;  (* repo-relative, as the compiler recorded it *)
  digest : Digest.t option;
}

let readdir_sorted path =
  if Sys.file_exists path && Sys.is_directory path then begin
    let entries = Sys.readdir path in
    Array.sort String.compare entries;
    Array.to_list entries
  end
  else []

let lib_dirs ~root =
  readdir_sorted (Filename.concat root "lib")
  |> List.filter (fun d ->
      let dir = Filename.concat (Filename.concat root "lib") d in
      Sys.is_directory dir
      && Sys.file_exists (Filename.concat dir "dune"))

(* The library's .ml sources, repo-relative: lib/<dir>/<file>.ml. *)
let sources ~root lib =
  let dir = "lib/" ^ lib in
  readdir_sorted (Filename.concat root dir)
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.map (fun f -> dir ^ "/" ^ f)

(* The byte/ objs directories for one lib dir, e.g.
   _build/default/lib/ccplace/.ccplace.objs/byte. *)
let objs_dirs ~root lib =
  let built = Filename.concat root (Filename.concat "_build/default/lib" lib)
  in
  readdir_sorted built
  |> List.filter_map (fun entry ->
      if Filename.check_suffix entry ".objs" then begin
        let byte = Filename.concat (Filename.concat built entry) "byte" in
        if Sys.file_exists byte && Sys.is_directory byte then Some byte
        else None
      end
      else None)

let cmt_paths ~root lib =
  List.concat_map
    (fun byte ->
       readdir_sorted byte
       |> List.filter (fun f -> Filename.check_suffix f ".cmt")
       |> List.map (Filename.concat byte))
    (objs_dirs ~root lib)

(* Generated alias modules (ccplace.ml-gen) hold only module aliases;
   nothing to summarize, and no source to check. *)
let is_generated source = Filename.check_suffix source "-gen"

let load_one ~lib path =
  match Cmt_format.read_cmt path with
  | exception (Cmt_format.Error _ | Cmi_format.Error _) ->
    Error (Printf.sprintf "not a loadable cmt (compiler mismatch?): %s" path)
  | exception Sys_error msg -> Error msg
  | exception (End_of_file | Failure _) ->
    Error (Printf.sprintf "truncated or corrupt cmt: %s" path)
  | info -> begin
      match (info.Cmt_format.cmt_annots, info.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some source
        when not (is_generated source) ->
        Ok
          (Some
             ( { source; digest = info.Cmt_format.cmt_source_digest },
               Summary.of_structure ~lib
                 ~modname:info.Cmt_format.cmt_modname ~file:source str ))
      | _ -> Ok None  (* interfaces, packs, partial trees, aliases *)
    end

let digest_file path =
  match Digest.file path with
  | d -> Some d
  | exception Sys_error _ -> None

let cmt_error ~file fmt =
  Printf.ksprintf
    (fun detail -> Diagnostic.make ~rule:Typed_rules.cmt_error ~file detail)
    fmt

(* One finding per source whose cmt is missing or was built from another
   version of it, and one per cmt whose source is gone. *)
let freshness ~root ~sources built =
  List.filter_map
    (fun src ->
       match List.find_opt (fun b -> b.source = src) built with
       | None -> Some (cmt_error ~file:src "no loadable .cmt; run dune build")
       | Some { digest = Some d; _ }
         when Some d = digest_file (Filename.concat root src) ->
         None
       | Some _ ->
         Some
           (cmt_error ~file:src
              "stale .cmt: the source changed since it was built; run dune \
               build"))
    sources
  @ List.filter_map
      (fun b ->
         if List.mem b.source sources then None
         else
           Some
             (cmt_error ~file:b.source
                "the .cmt's source is gone; run dune build"))
      built

(* One library's summaries and findings.  A library with sources and no
   implementation cmt (never built, or only its native code) gets one
   finding, not one per module. *)
let load_lib ~root lib =
  let sources = sources ~root lib in
  let mods, built, unreadable =
    List.fold_right
      (fun path (mods, built, errors) ->
         match load_one ~lib path with
         | Ok (Some (b, m)) -> (m :: mods, b :: built, errors)
         | Ok None -> (mods, built, errors)
         | Error detail ->
           (mods, built, cmt_error ~file:("lib/" ^ lib) "%s" detail :: errors))
      (cmt_paths ~root lib) ([], [], [])
  in
  let coverage =
    if built = [] && sources <> [] then
      [ cmt_error ~file:("lib/" ^ lib)
          "no implementation .cmt under _build/default/lib/%s; run dune \
           build"
          lib ]
    else freshness ~root ~sources built
  in
  (mods, unreadable @ coverage)

let load ~root =
  let libs = lib_dirs ~root in
  let per_lib = List.map (load_lib ~root) libs in
  let mods = List.concat_map fst per_lib in
  let heads = Hashtbl.create 32 in
  List.iter
    (fun (m : Summary.moddef) ->
       Hashtbl.replace heads (Names.head m.Summary.m_name) m.Summary.m_lib)
    mods;
  { libs;
    mods;
    lib_of_module = Hashtbl.find_opt heads;
    errors = List.concat_map snd per_lib }
