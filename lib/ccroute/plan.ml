open Ccgrid

type t = {
  order : int array;
  channel : int array;
  track : int array;
  attach : int array;
  tracks_per_channel : int array;
  track_caps : int array array;
}

(* The attach cell of a follower group [g] joining a shared channel: the
   cell nearest the channel horizontally, lowest first (toward the
   drivers).  Channel [ch] separates columns ch-1 and ch; row-major ids
   make the first of the nearest the lowest. *)
let attach_toward_channel (t : Group.t) g ~channel =
  let cols = t.Group.cols and cells = t.Group.cells in
  let lo = t.Group.first.(g) and hi = t.Group.first.(g + 1) in
  if lo = hi then invalid_arg "Plan: empty group";
  let best = ref cells.(lo) and best_d = ref max_int in
  for i = lo to hi - 1 do
    let col = cells.(i) mod cols in
    let d = Int.min (abs (col - channel)) (abs (col - (channel - 1))) in
    if d < !best_d then begin
      best := cells.(i);
      best_d := d
    end
  done;
  !best

(* The stub-planarity repair and Step 2 on one connection per group:
   group [g] joins the trunk of its capacitor in channel [channel.(g)]
   through a stub at cell [attach.(g)], and [order] lists the groups in
   connection order.  [channel] and [attach] are updated in place by the
   repair; the plan returned holds them.

   Stub planarity.  Each connection straps its group to the trunk with an
   M1 stub at its attach cell's row; when capacitor A straps from the
   left column of a channel at the same row where capacitor B straps
   from the right, A's track must lie left of B's or the stubs overlap on
   M1 — a short.  These precedence constraints can form a cycle (A left
   of B at one row, B left of A at another), which no track order
   satisfies; cycles are broken by re-attaching one of the offending
   groups at a different channel-adjacent cell — the group joins the
   same trunk either way, only its stub row moves.

   Each channel indexes its capacitors by slot, in the order their first
   connection appears, and derives the precedence once into an n×n slot
   table from the connections of each row: slot a precedes slot b when a
   straps from the left at a row where b straps from the right. *)
let assign (placement : Placement.t) (groups : Group.t) order channel attach =
  let rows = placement.Placement.rows and cols = placement.Placement.cols in
  let m = Array.length order in
  let caps = Array.length groups.Group.cap_first - 1 in
  Array.iter
    (fun ch ->
       if ch < 0 || ch > cols then invalid_arg "Plan.of_channels: channel out of range")
    channel;
  let cap c = groups.Group.cap.(c) in
  let row c = attach.(c) / cols and col c = attach.(c) mod cols in
  (* the connections of each channel in connection order: a stable
     counting sort, [conns.(pos.(ch)) .. conns.(pos.(ch + 1) - 1)] *)
  let pos = Array.make (cols + 3) 0 and conns = Array.make m 0 in
  let bucket () =
    Array.fill pos 0 (cols + 3) 0;
    Array.iter (fun ch -> pos.(ch + 2) <- pos.(ch + 2) + 1) channel;
    for ch = 2 to cols + 2 do
      pos.(ch) <- pos.(ch) + pos.(ch - 1)
    done;
    Array.iter
      (fun c ->
         let ch = channel.(c) in
         conns.(pos.(ch + 1)) <- c;
         pos.(ch + 1) <- pos.(ch + 1) + 1)
      order
  in
  bucket ();
  (* per-channel work arrays, stamped by [epoch]: a capacitor's slot, each
     slot's capacitor and strap sides (1 left, 2 right), the precedence
     table, and per row the list of the channel's connections there *)
  let epoch = ref 0 in
  let slot_epoch = Array.make caps (-1) and slot_of = Array.make caps 0 in
  let slot_cap = Array.make caps 0 and side = Array.make caps 0 in
  let before = Bytes.make (caps * caps) '\000' in
  let row_epoch = Array.make rows (-1) and row_first = Array.make rows (-1) in
  let next = Array.make m (-1) in
  let analyse ch =
    incr epoch;
    let n = ref 0 in
    for e = pos.(ch) to pos.(ch + 1) - 1 do
      let c = conns.(e) in
      let k = cap c in
      if slot_epoch.(k) <> !epoch then begin
        slot_epoch.(k) <- !epoch;
        slot_of.(k) <- !n;
        slot_cap.(!n) <- k;
        side.(!n) <- 0;
        incr n
      end;
      let s = slot_of.(k) in
      (* channel ch sits left of column ch: an attach cell in column ch
         reaches the channel from the right *)
      side.(s) <- side.(s) lor (if col c >= ch then 2 else 1);
      let r = row c in
      if row_epoch.(r) <> !epoch then begin
        row_epoch.(r) <- !epoch;
        row_first.(r) <- -1
      end;
      next.(c) <- row_first.(r);
      row_first.(r) <- c
    done;
    let n = !n in
    Bytes.fill before 0 (n * n) '\000';
    for e = pos.(ch) to pos.(ch + 1) - 1 do
      let c = conns.(e) in
      if col c < ch then begin
        let sa = slot_of.(cap c) in
        let d = ref row_first.(row c) in
        while !d >= 0 do
          let b = !d in
          let sb = slot_of.(cap b) in
          if col b >= ch && sb <> sa then
            Bytes.set before ((sa * n) + sb) '\001';
          d := next.(b)
        done
      end
    done;
    n
  in
  (* Step 2: one track per (channel, capacitor); a capacitor's groups in
     the same channel share the track (they are one electrical net).
     Lines 42-45 assign each connection the closest available track: a
     capacitor attaching from the column right of the channel takes the
     rightmost unused track, one attaching from the left takes the
     leftmost — minimising its stub length.  Tracks are assigned in a
     topological order of the precedence (Kahn's algorithm on the slot
     table), with the closest-track rule choosing among the ready slots:
     left-only capacitors take the leftmost tracks in discovery order,
     right-only ones the rightmost (the first discovered ends up
     rightmost).  Class c and rank r <= n are packed as the key
     c (n + 1) + r, so int order is (class, rank) order.  The precedence
     is cyclic exactly when some pick finds no ready slot; the pick then
     falls back to the least key and lets the LVS gate report the
     residual overlap.  [settle ch] assigns the channel's tracks and
     answers whether its precedence is acyclic. *)
  let tracks_per_channel = Array.make (cols + 1) 0 in
  let track_caps = Array.make (cols + 1) [||] in
  let track = Array.make m 0 in
  let indeg = Array.make caps 0 and key = Array.make caps 0 in
  let slot_track = Array.make caps (-1) in
  let settle ch =
    let n = analyse ch in
    for b = 0 to n - 1 do
      indeg.(b) <- 0;
      for a = 0 to n - 1 do
        if Bytes.get before ((a * n) + b) <> '\000' then indeg.(b) <- indeg.(b) + 1
      done;
      slot_track.(b) <- -1;
      key.(b) <-
        (match side.(b) with
         | 1 -> b
         | 3 -> (n + 1) + b
         | _ -> (2 * (n + 1)) + (n - b))
    done;
    (* the free slot with the least key, among the ready ones if [ready] *)
    let pick ~ready =
      let best = ref (-1) in
      for i = 0 to n - 1 do
        if slot_track.(i) < 0 && ((not ready) || indeg.(i) = 0) then
          if !best = -1 || key.(i) < key.(!best) then best := i
      done;
      !best
    in
    let caps_in_order = Array.make n (-1) in
    let acyclic = ref true in
    for t = 0 to n - 1 do
      let i =
        match pick ~ready:true with
        | -1 ->
          acyclic := false;
          pick ~ready:false
        | i -> i
      in
      slot_track.(i) <- t;
      for j = 0 to n - 1 do
        if slot_track.(j) < 0 && Bytes.get before ((i * n) + j) <> '\000' then
          indeg.(j) <- indeg.(j) - 1
      done;
      caps_in_order.(t) <- slot_cap.(i)
    done;
    tracks_per_channel.(ch) <- n;
    track_caps.(ch) <- caps_in_order;
    for e = pos.(ch) to pos.(ch + 1) - 1 do
      let c = conns.(e) in
      track.(c) <- slot_track.(slot_of.(cap c))
    done;
    !acyclic
  in
  (* greedy single-move repair: try re-attaching each connection of the
     channel, in descending order, at another cell of its group adjacent
     to the channel, nearest row first *)
  let reattach ch =
    for e = pos.(ch + 1) - 1 downto pos.(ch) do
      if not (settle ch) then begin
        let c = conns.(e) in
        let a0 = attach.(c) in
        let row0 = a0 / cols in
        let candidates =
          Array.fold_right
            (fun x acc ->
               let col = x mod cols in
               if (col = ch - 1 || col = ch) && x / cols <> row0 then x :: acc
               else acc)
            (Array.sub groups.Group.cells groups.Group.first.(c) (Group.size groups c))
            []
          |> List.sort (fun a b ->
              match
                Int.compare (abs ((a / cols) - row0)) (abs ((b / cols) - row0))
              with
              | 0 -> Int.compare a b
              | d -> d)
        in
        let rec try_cells = function
          | [] -> attach.(c) <- a0
          | x :: rest ->
            attach.(c) <- x;
            if not (settle ch) then try_cells rest
        in
        try_cells candidates
      end
    done
  in
  let stuck = ref [] in
  for ch = cols downto 0 do
    if pos.(ch + 1) > pos.(ch) && not (settle ch) then begin
      reattach ch;
      if not (settle ch) then stuck := ch :: !stuck
    end
  done;
  (* A cycle no re-attachment breaks (groups with a single cell on the
     channel, e.g. rowwise strips) is broken by moving one connection to
     the channel on the other side of its attach cell: the group gets a
     trunk of its own there, joined to the net by the bridge.  Stuck
     channels are taken in ascending order, each one's connections in
     descending order as they stood when its turn came; a move that
     leaves either channel cyclic is undone.  A move into a stuck channel
     whose turn is still to come is always undone, so that order is the
     one the connections had before any move. *)
  if !stuck <> [] then begin
    List.iter
      (fun ch ->
         let mine = Array.sub conns pos.(ch) (pos.(ch + 1) - pos.(ch)) in
         for e = Array.length mine - 1 downto 0 do
           if not (settle ch) then begin
             let c = mine.(e) in
             let col = col c in
             let other = if col >= ch then col + 1 else col in
             let move into =
               channel.(c) <- into;
               bucket ()
             in
             move other;
             if not (settle ch && settle other) then move ch
           end
         done)
      !stuck;
    for ch = 0 to cols do
      ignore (settle ch : bool)
    done
  end;
  { order; channel; track; attach; tracks_per_channel; track_caps }

let of_channels (placement : Placement.t) (groups : Group.t) choices =
  let m = Group.count groups in
  let once () =
    invalid_arg "Plan.of_channels: each group needs exactly one connection"
  in
  if List.compare_length_with choices m <> 0 then once ();
  let order = Array.make m 0 and channel = Array.make m 0 in
  let attach = Array.make m 0 and seen = Array.make m false in
  List.iteri
    (fun c (g, ch, a) ->
       if g < 0 || g >= m || seen.(g) then once ();
       seen.(g) <- true;
       order.(c) <- g;
       channel.(g) <- ch;
       attach.(g) <- a)
    choices;
  assign placement groups order channel attach

(* Step 1: channel selection for the groups of every capacitor, in group
   order, handing each its connection through [emit].  The partners of
   group [j] are the groups of its capacitor not yet routed whose column
   spans meet its own (Algorithm 1 line 14).  A per-column index lists
   the capacitor's groups spanning each column in ascending order, so
   partners come from [j]'s own columns instead of a test of every pair;
   a stamp keeps each partner once, and they are visited in ascending
   group order, as Algorithm 1 scans them.  The first partner fixes
   [c_j]; each partner records on which sides of it the pair could share
   a channel, and the sharers of the chosen side follow [j] in
   descending group order.  Every buffer is indexed by group id or sized
   for the largest capacitor, and allocated once. *)
let select_channels ~cols (t : Group.t) ~emit =
  let m = Group.count t and caps = Array.length t.Group.cap_first - 1 in
  let col_lo = t.Group.col_lo and col_hi = t.Group.col_hi in
  let span_sum lo hi =
    let s = ref 0 in
    for q = lo to hi - 1 do
      s := !s + (col_hi.(q) - col_lo.(q) + 1)
    done;
    !s
  in
  let spans = ref 0 in
  for k = 0 to caps - 1 do
    spans := Int.max !spans (span_sum t.Group.cap_first.(k) t.Group.cap_first.(k + 1))
  done;
  (* the groups spanning column [col] are
     [col_groups.(col_pos.(col)) .. col_groups.(col_pos.(col + 1) - 1)] *)
  let col_pos = Array.make (cols + 2) 0 and col_groups = Array.make !spans 0 in
  let visited = Array.make m false and stamp = Array.make m (-1) in
  let partners = Array.make m 0 and sides = Array.make m 0 in
  let pair = Array.make 2 0 in
  for k = 0 to caps - 1 do
    let lo = t.Group.cap_first.(k) and hi = t.Group.cap_first.(k + 1) in
    Array.fill col_pos 0 (cols + 2) 0;
    for q = lo to hi - 1 do
      for col = col_lo.(q) to col_hi.(q) do
        col_pos.(col + 2) <- col_pos.(col + 2) + 1
      done
    done;
    for col = 2 to cols + 1 do
      col_pos.(col) <- col_pos.(col) + col_pos.(col - 1)
    done;
    for q = lo to hi - 1 do
      for col = col_lo.(q) to col_hi.(q) do
        col_groups.(col_pos.(col + 1)) <- q;
        col_pos.(col + 1) <- col_pos.(col + 1) + 1
      done
    done;
    for j = lo to hi - 1 do
      if not visited.(j) then begin
        visited.(j) <- true;
        let np = ref 0 in
        for col = col_lo.(j) to col_hi.(j) do
          for e = col_pos.(col) to col_pos.(col + 1) - 1 do
            let q = col_groups.(e) in
            if (not visited.(q)) && stamp.(q) <> j then begin
              stamp.(q) <- j;
              partners.(!np) <- q;
              incr np
            end
          done
        done;
        let np = !np in
        (* one column's index is ascending already *)
        if np > 1 && col_lo.(j) < col_hi.(j) then begin
          let sorted = Array.sub partners 0 np in
          Array.sort Int.compare sorted;
          Array.blit sorted 0 partners 0 np
        end;
        if np = 0 then begin
          (* solo group: attach at the cell closest to the bottom (its
             first, row-major), trunk in the channel on its left *)
          if Group.size t j = 0 then invalid_arg "Plan: empty group";
          let attach = t.Group.cells.(t.Group.first.(j)) in
          emit j (attach mod cols) attach
        end
        else begin
          Group.closest_cells t j partners.(0) pair;
          let up = pair.(0) in
          let c_j = up mod cols in
          let left = ref 0 and right = ref 0 in
          for e = 0 to np - 1 do
            if e > 0 then Group.closest_cells t j partners.(e) pair;
            let uq_col = pair.(1) mod cols in
            let l = uq_col = c_j - 1 || uq_col = c_j
            and r = uq_col = c_j || uq_col = c_j + 1 in
            if l then incr left;
            if r then incr right;
            sides.(e) <- (if l then 1 else 0) lor (if r then 2 else 0)
          done;
          (* Algorithm 1 line 29: strictly more sharing on the left wins,
             ties route right *)
          let side_left = !left > !right in
          let channel = if side_left then c_j else c_j + 1 in
          let flag = if side_left then 1 else 2 in
          emit j channel up;
          for e = np - 1 downto 0 do
            if sides.(e) land flag <> 0 then begin
              let q = partners.(e) in
              visited.(q) <- true;
              emit q channel (attach_toward_channel t q ~channel)
            end
          done
        end
      end
    done
  done

let make (placement : Placement.t) (groups : Group.t) =
  let m = Group.count groups in
  let order = Array.make m 0 and channel = Array.make m 0 in
  let attach = Array.make m 0 in
  let out = ref 0 in
  let emit g ch a =
    order.(!out) <- g;
    channel.(g) <- ch;
    attach.(g) <- a;
    incr out
  in
  select_channels ~cols:placement.Placement.cols groups ~emit;
  assign placement groups order channel attach

let total_tracks t = Array.fold_left ( + ) 0 t.tracks_per_channel
