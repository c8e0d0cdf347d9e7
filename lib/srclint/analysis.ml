(* The three whole-program analyses over summarized modules:

   - effect/determinism taint: reverse reachability from ambient sources
     (wall clock, ambient Random, getenv, GC mutators, printing) through
     the call graph, reported for every def in a [pure]-contracted
     library with the concrete call chain;
   - domain-escape race detection: writes to mutable state that is not
     bound inside a closure submitted to Par.Pool — directly captured,
     module-level, or reached through a callee — reported at the write
     or submission site;
   - architecture layering: the manifest's rank DAG and forbidden edges
     over the lib/ sublibrary dependency graph, plus cycle detection.

   Calls into [trust]ed module prefixes (telemetry's mutex+DLS sinks,
   Par's pool/substream internals) are effect-free boundaries: the
   analyses do not descend into them. *)

let rule_of_kind kind =
  match (kind : Names.kind) with
  | Names.Wall_clock -> Typed_rules.taint_wall_clock
  | Names.Random -> Typed_rules.taint_random
  | Names.Getenv -> Typed_rules.taint_getenv
  | Names.Gc -> Typed_rules.taint_gc
  | Names.Print -> Typed_rules.taint_print

let sorted_defs (mods : Summary.moddef list) =
  List.sort
    (fun (a : Summary.moddef) b ->
       String.compare a.Summary.m_name b.Summary.m_name)
    mods
  |> List.concat_map (fun m -> m.Summary.m_defs)

let pp_chain names source =
  String.concat " -> " (names @ [ source ])

(* --- effect/determinism taint ------------------------------------------ *)

let direct_source kind (d : Summary.def) =
  List.find_map
    (fun (r : Summary.refr) ->
       match r.Summary.rname with
       | Names.Global g when Names.source_kind g = Some kind ->
         Some (g, r.Summary.rline)
       | _ -> None)
    d.Summary.d_refs

let taint ~manifest graph mods =
  let keep name = not (Manifest.is_trusted manifest name) in
  let defs = sorted_defs mods in
  List.concat_map
    (fun kind ->
       let seeds =
         List.filter_map
           (fun (d : Summary.def) ->
              match direct_source kind d with
              | Some src -> Some (d.Summary.d_name, src)
              | None -> None)
           defs
       in
       if seeds = [] then []
       else begin
         let verdicts = Callgraph.reach graph ~keep ~seeds in
         List.filter_map
           (fun (d : Summary.def) ->
              if
                not (Manifest.is_pure manifest d.Summary.d_lib)
                || not (keep d.Summary.d_name)
              then None
              else begin
                match Callgraph.chain verdicts d.Summary.d_name with
                | None -> None
                | Some (names, (source, sline)) ->
                  Some
                    (Diag.makef ~loc:d.Summary.d_file ~line:d.Summary.d_line
                       (rule_of_kind kind)
                       "%s reaches %s (%s taint, source at line %d of the \
                        chain's last file): %s"
                       d.Summary.d_name source (Names.kind_name kind) sline
                       (pp_chain names source))
              end)
           defs
       end)
    Names.all_kinds

(* --- domain-escape race detection -------------------------------------- *)

(* A def's own module-level write, if any: a dotted target, or a bare
   target that is not bound inside the def (hence a module sibling). *)
let direct_global_write ~manifest (d : Summary.def) =
  List.find_map
    (fun (m : Summary.mutation) ->
       match m.Summary.target with
       | Summary.Tglobal g when not (Manifest.is_trusted manifest g) ->
         Some (m.Summary.op, g, m.Summary.mline)
       | Summary.Tlocal n when not (Summary.SS.mem n d.Summary.d_bound) ->
         Some (m.Summary.op, d.Summary.d_scope ^ "." ^ n, m.Summary.mline)
       | _ -> None)
    d.Summary.d_mutations

let escape ~manifest graph mods =
  let keep name = not (Manifest.is_trusted manifest name) in
  let defs = sorted_defs mods in
  let seeds =
    List.filter_map
      (fun (d : Summary.def) ->
         if not (keep d.Summary.d_name) then None
         else begin
           match direct_global_write ~manifest d with
           | Some w -> Some (d.Summary.d_name, w)
           | None -> None
         end)
      defs
  in
  let verdicts =
    if seeds = [] then Hashtbl.create 1
    else Callgraph.reach graph ~keep ~seeds
  in
  let emit = ref [] in
  let diag ~file ~line fmt =
    Printf.ksprintf
      (fun detail ->
         emit :=
           Diag.make ~loc:file ~line Typed_rules.domain_escape detail
           :: !emit)
      fmt
  in
  let check_callee ~file ~entry (d : Summary.def) rname rline =
    match Callgraph.resolve graph d rname with
    | Some callee when keep callee.Summary.d_name -> begin
        match Callgraph.chain verdicts callee.Summary.d_name with
        | Some (names, (op, target, _)) ->
          diag ~file ~line:rline
            "task of %s mutates %s (%s) via %s" entry target op
            (pp_chain names target)
        | None -> ()
      end
    | _ -> ()
  in
  List.iter
    (fun (d : Summary.def) ->
       if keep d.Summary.d_name then
         List.iter
           (fun (s : Summary.pool_site) ->
              match s.Summary.fn with
              | Summary.Fn_closure c ->
                List.iter
                  (fun (m : Summary.mutation) ->
                     match m.Summary.target with
                     | Summary.Tlocal n
                       when not (Summary.SS.mem n c.Summary.c_bound) ->
                       diag ~file:d.Summary.d_file ~line:m.Summary.mline
                         "task of %s writes %s, which is created outside \
                          the closure (%s); worker domains race on it"
                         s.Summary.entry n m.Summary.op
                     | Summary.Tglobal g
                       when not (Manifest.is_trusted manifest g) ->
                       diag ~file:d.Summary.d_file ~line:m.Summary.mline
                         "task of %s writes module-level state %s (%s); \
                          worker domains race on it"
                         s.Summary.entry g m.Summary.op
                     | _ -> ())
                  c.Summary.c_mutations;
                let seen = Hashtbl.create 8 in
                List.iter
                  (fun (r : Summary.refr) ->
                     let key =
                       match r.Summary.rname with
                       | Names.Local n -> n
                       | Names.Global g -> g
                     in
                     if not (Hashtbl.mem seen key) then begin
                       Hashtbl.replace seen key ();
                       check_callee ~file:d.Summary.d_file
                         ~entry:s.Summary.entry d r.Summary.rname
                         r.Summary.rline
                     end)
                  c.Summary.c_refs
              | Summary.Fn_ref rname ->
                check_callee ~file:d.Summary.d_file ~entry:s.Summary.entry
                  d rname s.Summary.sline
              | Summary.Fn_unknown -> ())
           d.Summary.d_pool_sites)
    defs;
  List.rev !emit

(* --- architecture layering --------------------------------------------- *)

type edge = {
  e_src : string;  (* depending lib (dir name) *)
  e_dst : string;  (* lib depended upon *)
  e_file : string;
  e_line : int;
}

(* Cross-library edges from the summaries: every dotted reference whose
   head module belongs to another analyzed lib, deduplicated to the
   first use site per (src, dst) pair. *)
let edges ~lib_of_module (mods : Summary.moddef list) =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (fun (m : Summary.moddef) ->
       List.iter
         (fun (d : Summary.def) ->
            List.iter
              (fun (r : Summary.refr) ->
                 match r.Summary.rname with
                 | Names.Global g -> begin
                     match lib_of_module (Names.head g) with
                     | Some dst when dst <> m.Summary.m_lib ->
                       if not (Hashtbl.mem seen (m.Summary.m_lib, dst))
                       then begin
                         Hashtbl.replace seen (m.Summary.m_lib, dst) ();
                         out :=
                           { e_src = m.Summary.m_lib; e_dst = dst;
                             e_file = d.Summary.d_file;
                             e_line = r.Summary.rline }
                           :: !out
                       end
                     | _ -> ()
                   end
                 | Names.Local _ -> ())
              d.Summary.d_refs)
         m.Summary.m_defs)
    (List.sort
       (fun (a : Summary.moddef) b ->
          String.compare a.Summary.m_name b.Summary.m_name)
       mods);
  List.rev !out

let compare_cycles a b =
  match Int.compare (List.length a) (List.length b) with
  | 0 -> List.compare String.compare a b
  | c -> c

let find_cycles edges =
  let adj = Hashtbl.create 32 in
  let nodes = ref [] in
  List.iter
    (fun e ->
       if not (List.mem e.e_src !nodes) then nodes := e.e_src :: !nodes;
       if not (List.mem e.e_dst !nodes) then nodes := e.e_dst :: !nodes;
       Hashtbl.add adj e.e_src e.e_dst)
    edges;
  let nodes = List.sort String.compare !nodes in
  let cycles = ref [] in
  let canonical cycle =
    (* rotate so the smallest lib leads; dedup across entry points *)
    let n = List.length cycle in
    let arr = Array.of_list cycle in
    let min_i = ref 0 in
    Array.iteri
      (fun i l -> if String.compare l arr.(!min_i) < 0 then min_i := i)
      arr;
    List.init n (fun i -> arr.((i + !min_i) mod n))
  in
  let rec dfs path node =
    match
      List.find_index (fun p -> p = node) (List.rev path)
    with
    | Some i ->
      let cycle =
        canonical (List.filteri (fun j _ -> j >= i) (List.rev path))
      in
      if not (List.mem cycle !cycles) then cycles := cycle :: !cycles
    | None ->
      let succs =
        Hashtbl.find_all adj node |> List.sort_uniq String.compare
      in
      List.iter (dfs (node :: path)) succs
  in
  List.iter (dfs []) nodes;
  List.sort compare_cycles !cycles

let layering ~manifest ~libs edges =
  let out = ref [] in
  let diag rule ~file ~line fmt =
    Printf.ksprintf
      (fun detail ->
         out := Diag.make ~loc:file ~line rule detail :: !out)
      fmt
  in
  List.iter
    (fun lib ->
       if Manifest.rank manifest lib = None then
         diag Typed_rules.undeclared_lib
           ~file:manifest.Manifest.file ~line:0
           "lib/%s has no layer declaration in %s; every sublibrary must \
            be placed in the DAG"
           lib manifest.Manifest.file)
    (List.sort String.compare libs);
  List.iter
    (fun e ->
       match Manifest.forbidden manifest ~src:e.e_src ~dst:e.e_dst with
       | Some why ->
         diag Typed_rules.forbidden_dep ~file:e.e_file
           ~line:e.e_line "%s must not depend on %s: %s" e.e_src e.e_dst
           (if why = "" then "forbidden by the manifest" else why)
       | None -> begin
           match
             (Manifest.rank manifest e.e_src, Manifest.rank manifest e.e_dst)
           with
           | (Some rs, Some rd) when rd >= rs ->
             diag Typed_rules.layer_violation ~file:e.e_file
               ~line:e.e_line
               "%s (layer %d) depends on %s (layer %d); dependencies must \
                point strictly downward"
               e.e_src rs e.e_dst rd
           | _ -> ()
         end)
    edges;
  List.iter
    (fun cycle ->
       let site =
         List.find_opt (fun e -> Some e.e_src = List.nth_opt cycle 0) edges
       in
       let file, line =
         match site with
         | Some e -> (e.e_file, e.e_line)
         | None -> (manifest.Manifest.file, 0)
       in
       diag Typed_rules.layer_cycle ~file ~line
         "library dependency cycle: %s -> %s"
         (String.concat " -> " cycle)
         (List.hd cycle))
    (find_cycles edges);
  List.rev !out

(* --- the whole typed pass over one summarized universe ----------------- *)

let run ~manifest ~libs ~lib_of_module mods =
  let graph = Callgraph.build mods in
  Manifest.validate manifest ~libs
  @ taint ~manifest graph mods
  @ escape ~manifest graph mods
  @ layering ~manifest ~libs (edges ~lib_of_module mods)
