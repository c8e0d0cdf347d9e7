open Ccgrid

type route = {
  group : Group.t;
  channel : int;
  track : int;
  attach : Cell.t;
}

type t = {
  routes : route list;
  tracks_per_channel : int array;
  track_caps : int array array;
}

(* The attach cell of a follower group [q] joining a shared channel: the
   cell nearest the channel horizontally, lowest first (toward the
   drivers). *)
let attach_toward_channel (g : Group.t) ~channel =
  let distance (c : Cell.t) =
    (* channel [ch] separates columns ch-1 and ch *)
    Int.min (abs (c.Cell.col - channel)) (abs (c.Cell.col - (channel - 1)))
  in
  let closer c best =
    match Int.compare (distance c) (distance best) with
    | 0 -> Cell.compare c best < 0
    | d -> d < 0
  in
  match g.Group.cells with
  | [] -> invalid_arg "Plan: empty group"
  | first :: rest ->
    List.fold_left (fun best c -> if closer c best then c else best) first rest

(* Step 1: channel selection for the groups of one capacitor, in group
   order.  The partners of group [j] are the groups not yet routed whose
   column spans meet its own (Algorithm 1 line 14).  [by_col] lists, per
   column, the groups spanning it in ascending order, so partners come
   from [j]'s own columns instead of a test of every pair; they are
   visited in ascending group order, as Algorithm 1 scans them. *)
let select_channels ~cols groups_of_i =
  let n = Array.length groups_of_i in
  let by_col = Array.make cols [] in
  for k = n - 1 downto 0 do
    let q = groups_of_i.(k) in
    for col = q.Group.col_lo to q.Group.col_hi do
      by_col.(col) <- k :: by_col.(col)
    done
  done;
  let visited = Array.make n false in
  let stamp = Array.make n (-1) in
  let chosen = ref [] in
  (* emit (group, channel, attach) *)
  let emit g channel attach = chosen := (g, channel, attach) :: !chosen in
  for j = 0 to n - 1 do
    if not visited.(j) then begin
      let p = groups_of_i.(j) in
      visited.(j) <- true;
      let partners = ref [] in
      for col = p.Group.col_lo to p.Group.col_hi do
        List.iter
          (fun k ->
             if (not visited.(k)) && stamp.(k) <> j then begin
               stamp.(k) <- j;
               partners := k :: !partners
             end)
          by_col.(col)
      done;
      let c_j = ref (-1) in
      let u_p = ref None in
      let left = ref [] and right = ref [] in
      List.iter
        (fun k ->
           let q = groups_of_i.(k) in
           let up, uq = Group.closest_cells p q in
           if !c_j = -1 then begin
             c_j := up.Cell.col;
             u_p := Some up
           end;
           if uq.Cell.col = !c_j - 1 || uq.Cell.col = !c_j then
             left := (k, q, uq) :: !left;
           if uq.Cell.col = !c_j || uq.Cell.col = !c_j + 1 then
             right := (k, q, uq) :: !right)
        (List.sort Int.compare !partners);
      match !u_p with
      | None ->
        (* solo group: attach at the cell closest to the bottom, trunk in
           the channel on its left *)
        let attach =
          match p.Group.cells with
          | [] -> invalid_arg "Plan: empty group"
          | first :: rest ->
            List.fold_left
              (fun best c -> if Cell.compare c best < 0 then c else best)
              first rest
        in
        emit p attach.Cell.col attach
      | Some up ->
        (* Algorithm 1 line 29: strictly more sharing on the left wins,
           ties route right *)
        let side_left = List.length !left > List.length !right in
        let channel = if side_left then !c_j else !c_j + 1 in
        let sharing = if side_left then !left else !right in
        emit p channel up;
        List.iter
          (fun (k, q, _uq) ->
             visited.(k) <- true;
             emit q channel (attach_toward_channel q ~channel))
          sharing
    end
  done;
  List.rev !chosen

let of_channels (placement : Placement.t) choices =
  let cols = placement.Placement.cols in
  (* Stub planarity repair.  Each connection straps its group to the
     trunk with an M1 stub at its attach cell's row; when capacitor A
     straps from the left column of a channel at the same row where
     capacitor B straps from the right, A's track must lie left of B's
     or the stubs overlap on M1 — a short.  These precedence constraints
     can form a cycle (A left of B at one row, B left of A at another),
     which no track order satisfies; break cycles by re-attaching one of
     the offending groups at a different channel-adjacent cell — the
     group joins the same trunk either way, only its stub row moves. *)
  let choices =
    Array.of_list
      (List.map
         (fun ((g : Group.t), channel, attach) ->
            (g.Group.cap, g, ref channel, ref attach))
         choices)
  in
  let cyclic channel idxs =
    (* caps with their left- and right-strap rows under the current
       attaches *)
    let strap = Hashtbl.create 8 in
    List.iter
      (fun i ->
         let cap, _, _, attach = choices.(i) in
         let lefts, rights =
           Option.value ~default:([], []) (Hashtbl.find_opt strap cap)
         in
         let row = (!attach).Cell.row in
         Hashtbl.replace strap cap
           (if (!attach).Cell.col >= channel then (lefts, row :: rights)
            else (row :: lefts, rights)))
      idxs;
    let caps = Hashtbl.fold (fun cap _ acc -> cap :: acc) strap [] in
    let before a b =
      a <> b
      &&
      let lefts, _ = Hashtbl.find strap a
      and _, rights = Hashtbl.find strap b in
      List.exists (fun r -> List.exists (Int.equal r) rights) lefts
    in
    (* Kahn: the constraint graph is cyclic iff some cap never drains *)
    let remaining = ref caps in
    let progress = ref true in
    while !progress do
      progress := false;
      let ready, blocked =
        List.partition
          (fun b -> not (List.exists (fun a -> before a b) !remaining))
          !remaining
      in
      if ready <> [] then progress := true;
      remaining := blocked
    done;
    !remaining <> []
  in
  let by_channel_idx = Hashtbl.create 16 in
  Array.iteri
    (fun i (_, _, channel, _) ->
       Hashtbl.replace by_channel_idx !channel
         (i :: Option.value ~default:[] (Hashtbl.find_opt by_channel_idx !channel)))
    choices;
  let stuck = ref [] in
  Hashtbl.iter
    (fun channel idxs ->
       if cyclic channel idxs then begin
         (* greedy single-move repair: try re-attaching each connection at
            another cell adjacent to the channel, nearest row first *)
         List.iter
           (fun i ->
              if cyclic channel idxs then begin
                let _, g, _, attach = choices.(i) in
                let original = !attach in
                let candidates =
                  List.filter
                    (fun (c : Cell.t) ->
                       (c.Cell.col = channel - 1 || c.Cell.col = channel)
                       && c.Cell.row <> original.Cell.row)
                    g.Group.cells
                  |> List.sort
                       (fun (a : Cell.t) (b : Cell.t) ->
                          match
                            Int.compare
                              (abs (a.Cell.row - original.Cell.row))
                              (abs (b.Cell.row - original.Cell.row))
                          with
                          | 0 -> Cell.compare a b
                          | c -> c)
                in
                let rec try_cells = function
                  | [] -> attach := original
                  | c :: rest ->
                    attach := c;
                    if cyclic channel idxs then try_cells rest
                in
                try_cells candidates
              end)
           idxs;
         if cyclic channel idxs then stuck := channel :: !stuck
       end)
    by_channel_idx;
  (* A cycle no re-attachment breaks (groups with a single cell on the
     channel, e.g. rowwise strips) is broken by moving one connection to
     the channel on the other side of its attach cell: the group gets a
     trunk of its own there, joined to the net by the bridge. *)
  let idxs channel =
    Option.value ~default:[] (Hashtbl.find_opt by_channel_idx channel)
  in
  let move i ~from ~into =
    let _, _, ch, _ = choices.(i) in
    ch := into;
    Hashtbl.replace by_channel_idx from (List.filter (fun j -> j <> i) (idxs from));
    Hashtbl.replace by_channel_idx into (i :: idxs into)
  in
  List.iter
    (fun channel ->
       List.iter
         (fun i ->
            if cyclic channel (idxs channel) then begin
              let _, _, _, attach = choices.(i) in
              let col = (!attach).Cell.col in
              let other = if col >= channel then col + 1 else col in
              move i ~from:channel ~into:other;
              if cyclic channel (idxs channel) || cyclic other (idxs other) then
                move i ~from:other ~into:channel
            end)
         (idxs channel))
    (List.sort Int.compare !stuck);
  let per_cap_choices =
    Array.to_list choices
    |> List.map (fun (cap, g, channel, attach) -> (cap, g, !channel, !attach))
  in
  (* Step 2: one track per (channel, capacitor); a capacitor's groups in
     the same channel share the track (they are one electrical net).
     Lines 42-45 assign each connection the closest available track: a
     capacitor attaching from the column right of the channel takes the
     rightmost unused track, one attaching from the left takes the
     leftmost — minimising its stub length.

     Track order must also respect stub planarity.  Every strap is an M1
     stub at its attach cell's row y, from the cell pad to the track;
     when capacitor A straps from the left column at the same row where
     capacitor B straps from the right, A's track must lie left of B's
     or the two stubs overlap on M1 — a short (a capacitor strapping
     from both sides at different rows can impose several such
     constraints, which the closest-track rule alone can violate).  So
     tracks are assigned in a topological order of these precedence
     constraints, with the closest-track rule as the tie-break:
     left-only capacitors take the leftmost tracks in discovery order,
     right-only ones the rightmost. *)
  let tracks_per_channel = Array.make (cols + 1) 0 in
  (* (channel, cap) -> (left-strap rows, right-strap rows) *)
  let strap_rows = Hashtbl.create 64 in
  let channel_caps = Array.make (cols + 1) [] in
  List.iter
    (fun (cap, _g, channel, (attach : Cell.t)) ->
       let lefts, rights =
         match Hashtbl.find_opt strap_rows (channel, cap) with
         | Some lr -> lr
         | None ->
           let lr = (ref [], ref []) in
           Hashtbl.add strap_rows (channel, cap) lr;
           channel_caps.(channel) <- cap :: channel_caps.(channel);
           tracks_per_channel.(channel) <- tracks_per_channel.(channel) + 1;
           lr
       in
       (* channel ch sits left of column ch: an attach cell in column ch
          reaches the channel from the right *)
       if attach.Cell.col >= channel then
         rights := attach.Cell.row :: !rights
       else lefts := attach.Cell.row :: !lefts)
    per_cap_choices;
  let track_table = Hashtbl.create 64 in
  let track_caps =
    Array.mapi (fun ch n -> (ch, Array.make n (-1))) tracks_per_channel
    |> Array.map snd
  in
  Array.iteri
    (fun channel caps_rev ->
       let caps = Array.of_list (List.rev caps_rev) in
       let n = Array.length caps in
       let rows side =
         Array.map (fun cap -> !(side (Hashtbl.find strap_rows (channel, cap)))) caps
       in
       let lefts = rows fst and rights = rows snd in
       (* [before.(i).(j)]: [i] must take a track left of [j]'s *)
       let before =
         Array.init n (fun i ->
             Array.init n (fun j ->
                 i <> j
                 && List.exists
                      (fun r -> List.exists (Int.equal r) rights.(j))
                      lefts.(i)))
       in
       let indeg = Array.make n 0 in
       for i = 0 to n - 1 do
         for j = 0 to n - 1 do
           if before.(i).(j) then indeg.(j) <- indeg.(j) + 1
         done
       done;
       (* closest-track tie-break: left-only strappers first (lowest
          tracks) in discovery order, right-only last in reverse
          discovery order (the first discovered ends up rightmost).
          Class c and rank r <= n are packed as c (n + 1) + r, so int
          order is (class, rank) order. *)
       let key =
         Array.init n (fun i ->
             match (lefts.(i), rights.(i)) with
             | _ :: _, [] -> i
             | _ :: _, _ :: _ -> (n + 1) + i
             | [], _ -> (2 * (n + 1)) + (n - i))
       in
       let assigned = Array.make n false in
       for track = 0 to n - 1 do
         let pick ~ready =
           let best = ref (-1) in
           for i = 0 to n - 1 do
             if (not assigned.(i)) && ((not ready) || indeg.(i) = 0) then
               if !best = -1 || key.(i) < key.(!best) then best := i
           done;
           !best
         in
         (* a precedence cycle (A left of B and B left of A) cannot be
            satisfied by track order alone; fall back to the tie-break
            and let the LVS gate report the residual overlap *)
         let i = match pick ~ready:true with -1 -> pick ~ready:false | i -> i in
         assigned.(i) <- true;
         for j = 0 to n - 1 do
           if (not assigned.(j)) && before.(i).(j) then
             indeg.(j) <- indeg.(j) - 1
         done;
         Hashtbl.add track_table (channel, caps.(i)) track;
         track_caps.(channel).(track) <- caps.(i)
       done)
    channel_caps;
  let routes =
    List.map
      (fun (cap, group, channel, attach) ->
         { group; channel; track = Hashtbl.find track_table (channel, cap); attach })
      per_cap_choices
  in
  { routes; tracks_per_channel; track_caps }

let make (placement : Placement.t) groups =
  let caps = placement.Placement.bits + 1 in
  let per_cap = Array.make caps [] in
  List.iter
    (fun (g : Group.t) ->
       if g.Group.cap >= 0 && g.Group.cap < caps then
         per_cap.(g.Group.cap) <- g :: per_cap.(g.Group.cap))
    (List.rev groups);
  of_channels placement
    (List.concat_map
       (fun gs ->
          select_channels ~cols:placement.Placement.cols (Array.of_list gs))
       (Array.to_list per_cap))

let routes_of_cap t k =
  List.filter (fun r -> r.group.Group.cap = k) t.routes

let total_tracks t = Array.fold_left ( + ) 0 t.tracks_per_channel
