(* Canonical naming for Typedtree paths, plus the ambient-effect,
   mutator and pool-entry tables every analysis keys on.

   The compiler hands back paths in several spellings for one thing:
   [Stdlib.Random.int] vs [Stdlib__Random.int], [Ccplace__Spiral] vs
   [Ccplace.Spiral].  Everything downstream works on one normal form —
   dune's ["Lib__Module"] mangling becomes ["Lib.Module"], and a leading
   [Stdlib.] is dropped whenever something follows it. *)

type name =
  | Local of string   (* a bare identifier: def-local or module sibling *)
  | Global of string  (* dotted, normalized *)

let split_mangled comp =
  match String.index_opt comp '_' with
  | None -> [ comp ]
  | Some _ -> begin
    (* "Ccplace__Spiral" -> ["Ccplace"; "Spiral"]; "Ccplace__" (dune's
       empty-alias spelling) -> ["Ccplace"]; plain "snake_case" names
       pass through. *)
    let n = String.length comp in
    let rec find i =
      if i + 1 >= n then None
      else if comp.[i] = '_' && comp.[i + 1] = '_' then Some i
      else find (i + 1)
    in
    match find 0 with
    | Some i when i > 0 ->
      let head = String.sub comp 0 i in
      let tail = String.sub comp (i + 2) (n - i - 2) in
      if tail = "" then [ head ] else [ head; tail ]
    | _ -> [ comp ]
  end

let normalize dotted =
  let comps =
    String.split_on_char '.' dotted |> List.concat_map split_mangled
  in
  let comps =
    match comps with
    | "Stdlib" :: (_ :: _ as rest) -> rest
    | comps -> comps
  in
  String.concat "." comps

let of_path p =
  match p with
  | Path.Pident id -> Local (Ident.name id)
  | _ -> Global (normalize (Path.name p))

let head dotted =
  match String.index_opt dotted '.' with
  | Some i -> String.sub dotted 0 i
  | None -> dotted

let has_prefix ~prefix s =
  s = prefix
  || String.length s > String.length prefix
     && String.sub s 0 (String.length prefix + 1) = prefix ^ "."

(* --- ambient-effect sources ------------------------------------------- *)

type kind = Wall_clock | Random | Getenv | Gc | Print

let kind_name = function
  | Wall_clock -> "wall-clock"
  | Random -> "random"
  | Getenv -> "getenv"
  | Gc -> "gc"
  | Print -> "print"

let all_kinds = [ Wall_clock; Random; Getenv; Gc; Print ]

let wall_clock_sources =
  [ "Unix.gettimeofday"; "Unix.time"; "Unix.localtime"; "Unix.gmtime";
    "Unix.mktime"; "Sys.time" ]

let getenv_sources =
  [ "Sys.getenv"; "Sys.getenv_opt"; "Unix.getenv"; "Unix.environment" ]

(* Mutators only — read-only probes (Gc.quick_stat, ...) are fine. *)
let gc_sources =
  [ "Gc.set"; "Gc.compact"; "Gc.full_major"; "Gc.major"; "Gc.minor";
    "Gc.major_slice" ]

let print_sources =
  [ "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_float"; "print_char"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_bytes"; "Printf.printf";
    "Printf.eprintf"; "Format.printf"; "Format.eprintf" ]

(* Any use of the implicit global generator is ambient; [Random.State.*]
   carries its state explicitly and is what Par.Rng hands out — except
   [make_self_init], which smuggles ambient entropy back in. *)
let is_ambient_random name =
  name = "Random.State.make_self_init"
  || (has_prefix ~prefix:"Random" name
      && not (has_prefix ~prefix:"Random.State" name))

let source_kind name =
  if List.mem name wall_clock_sources then Some Wall_clock
  else if is_ambient_random name then Some Random
  else if List.mem name getenv_sources then Some Getenv
  else if List.mem name gc_sources then Some Gc
  else if List.mem name print_sources then Some Print
  else None

(* --- in-place mutators ------------------------------------------------- *)

(* Operations that mutate a positional argument in place, paired with
   the index of the argument they write — 0 for most, 1 for the sorts
   ([Array.sort cmp a] mutates [a]; its first argument is the
   comparator, which must not be mistaken for shared state).
   [Atomic.*] is deliberately absent: it is the sanctioned lock-free
   primitive, safe to share across worker domains. *)
let mutators =
  List.map
    (fun name -> (name, 0))
  [ ":="; "incr"; "decr";
    "Hashtbl.replace"; "Hashtbl.add"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Hashtbl.filter_map_inplace";
    "Array.set"; "Array.fill"; "Array.blit"; "Array.unsafe_set";
    "Bytes.set"; "Bytes.fill"; "Bytes.blit"; "Bytes.unsafe_set";
    "Buffer.add_string"; "Buffer.add_char"; "Buffer.add_bytes";
    "Buffer.add_buffer"; "Buffer.add_substring"; "Buffer.clear";
    "Buffer.reset"; "Buffer.truncate";
    "Queue.push"; "Queue.add"; "Queue.pop"; "Queue.take"; "Queue.clear";
    "Queue.transfer";
    "Stack.push"; "Stack.pop"; "Stack.clear" ]
  @ [ ("Array.sort", 1); ("Array.fast_sort", 1); ("Array.stable_sort", 1) ]

let mutator_target_index name = List.assoc_opt name mutators
let is_mutator name = mutator_target_index name <> None

(* --- Par.Pool entry points -------------------------------------------- *)

(* (entry point, index of the task function among positional args). *)
let pool_entries =
  [ ("Par.Pool.map_list", 0); ("Par.Pool.map_list_exn", 0) ]

let pool_fn_index name = List.assoc_opt name pool_entries
