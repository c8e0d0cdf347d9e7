(* LVS engine tests: sweepline geometry, clean certification of every
   placement style, the mutation harness (injected faults must fire the
   exact expected lvs/* rule ids), the Netbuild cross-check, and the
   triage paths for unrouted capacitors. *)

module L = Ccroute.Layout

(* group [g]'s tree edges in [l] as (parent, child) cells, in tree
   order *)
let edge_cells (l : L.t) g =
  let groups = l.L.groups in
  let e = groups.Ccroute.Group.tree_edges
  and e0 = Ccroute.Group.edge_first groups g in
  List.init (Ccroute.Group.edges groups g) (fun k ->
      ( Ccroute.Group.cell groups e.(2 * (e0 + k)),
        Ccroute.Group.cell groups e.((2 * (e0 + k)) + 1) ))

(* A trunk's attaches decoded: each group strapped to it, its attach
   cell, and where its stub meets the trunk — the trunk's x at the
   attach cell's row y. *)
type attach = {
  a_group : int;
  a_cell : Ccgrid.Cell.t;
  a_x : float;
  a_y : float;
}

let attaches (l : L.t) (tk : L.trunk) =
  List.map
    (fun g ->
       let c = Ccroute.Group.cell l.L.groups l.L.plan.Ccroute.Plan.attach.(g) in
       { a_group = g; a_cell = c; a_x = tk.L.tk_x;
         a_y = l.L.row_y.(c.Ccgrid.Cell.row) })
    (Array.to_list tk.L.tk_attaches)

let tech = Tech.Process.finfet_12nm

let layout_of ?p_of_cap style bits =
  let p = Ccplace.Style.place ~bits style in
  Ccroute.Layout.route tech ?p_of_cap p

let spiral6 = layout_of Ccplace.Style.Spiral 6

let fired diags = Diag.rule_ids diags

let triples diags =
  List.sort compare
    (List.map
       (fun (d : Diag.t) ->
          ( d.Diag.rule.Diag.id,
            (if d.Diag.loc = "" then "-" else d.Diag.loc),
            d.Diag.detail ))
       diags)

(* Every diagnostic of each mutation and triage case as sorted (rule id,
   loc, detail) triples, recorded before the comparison pass moved onto
   arrays: counts, cell lists and wording are pinned, not only the rule
   ids. *)
let pinned_diagnostics =
  [ ("drop attach via",
     [ ("lvs/floating-cell", "C_0",
        "1 of 1 unit cells unreachable from the driver: (4,4)");
       ("lvs/open", "C_0",
        "net fractured into 2 disconnected pieces (1 cell plates)") ]);
    ("delete bridge segment",
     [ ("lvs/floating-cell", "C_2",
        "1 of 2 unit cells unreachable from the driver: (3,4)");
       ("lvs/open", "C_2",
        "net fractured into 2 disconnected pieces (2 cell plates)") ]);
    ("nudge trunk onto neighbouring track",
     [ ("lvs/floating-cell", "C_5",
        "16 of 16 unit cells unreachable from the driver: (1,1), (1,2), \
         (1,3), (1,6), ...");
       ("lvs/open", "C_5",
        "net fractured into 3 disconnected pieces (16 cell plates)");
       ("lvs/short", "C_5",
        "extracted component of 68 shapes joins nets C_5, C_6") ]);
    ("merge two tracks",
     [ ("lvs/short", "C_0",
        "extracted component of 17 shapes joins nets C_0, C_2") ]);
    ("inject stray via",
     [ ("lvs/dangling", "C_3",
        "dead metal: component of 1 shapes touches no cell plate and no \
         driver terminal") ]);
    ("drop a group from the plan",
     [ ("lvs/netbuild-mismatch", "C_3",
        "extracted driver component reaches 4 cells but the RC tree models \
         3 (1 drawn-only, 0 tree-only; drawn-only (2,3))") ]);
    ("drop a group's only strap",
     [ ("lvs/netbuild-mismatch", "C_3",
        "the RC model falls into 2 disconnected pieces, so no tree joins \
         its cells to the driver") ]);
    ("unrouted net",
     [ ("lvs/open", "C_2",
        "net fractured into 2 disconnected pieces (2 cell plates)");
       ("lvs/open", "C_2",
        "no driver terminal: no via of the net reaches the driver row (y = \
         0)") ]);
    ("rejected diagnostics",
     [ ("lvs/open", "C_2",
        "capacitor has no routed net: no trunk reaches the driver row, so \
         no RC tree can be built") ]) ]

let check_fired what expected diags =
  Alcotest.(check (list string)) what expected (fired diags);
  match List.assoc_opt what pinned_diagnostics with
  | Some pinned ->
    Alcotest.(check (list (triple string string string)))
      (what ^ ": every diagnostic") pinned (triples diags)
  | None -> Alcotest.failf "%s: no pinned diagnostics" what

let sweep_styles bits =
  Ccplace.Style.Spiral :: Ccplace.Style.Chessboard
  :: Ccplace.Style.Rowwise
  :: [ Ccplace.Style.block_default ~bits ]

let near a b = Float.abs (a -. b) < 1e-9

(* --- Geom.Sweepline --- *)

(* boxes from (ax, ay, bx, by) endpoint pairs, in either order *)
let boxes_of segs =
  let a = Array.of_list segs in
  let pick f = Array.map f a in
  { Geom.Sweepline.x0 = pick (fun (ax, _, bx, _) -> Int.min ax bx);
    y0 = pick (fun (_, ay, _, by) -> Int.min ay by);
    x1 = pick (fun (ax, _, bx, _) -> Int.max ax bx);
    y1 = pick (fun (_, ay, _, by) -> Int.max ay by) }

(* every contact the sweep reports, as sorted (low, high) index pairs *)
let contacts b =
  let pairs = ref [] in
  Geom.Sweepline.contacts (Geom.Sweepline.scratch ()) b (fun i j ->
      pairs := (min i j, max i j) :: !pairs);
  List.sort compare !pairs

let test_sweepline_basic () =
  (* crossing, T-junction, endpoint touch, collinear overlap, disjoint *)
  let segs =
    [ (0, 1, 4, 1);     (* 0: H *)
      (2, 0, 2, 3);     (* 1: V crossing 0 *)
      (4, 1, 4, 5);     (* 2: V touching 0's endpoint *)
      (3, 1, 6, 1);     (* 3: H collinear-overlapping 0 *)
      (0, 4, 1, 4) ]    (* 4: disjoint H *)
  in
  Alcotest.(check (list (pair int int)))
    "contact pairs"
    [ (0, 1); (0, 2); (0, 3); (2, 3) ]
    (contacts (boxes_of segs))

let test_sweepline_points () =
  let segs =
    [ (0, 0, 5, 0);     (* 0: H *)
      (3, 0, 3, 0);     (* 1: point on 0 *)
      (3, 1, 3, 1);     (* 2: point off 0 *)
      (3, -2, 3, 1) ]   (* 3: V through 0, hits 2 *)
  in
  Alcotest.(check (list (pair int int)))
    "point contacts"
    [ (0, 1); (0, 3); (1, 3); (2, 3) ]
    (contacts (boxes_of segs))

(* An M3-like layer: verticals and via points, no horizontal, so the
   verticals are the major class and the minor class is empty; two vias
   coincide mid-wire and one sits on a wire's end. *)
let test_sweepline_verticals_and_vias () =
  let segs =
    [ (0, 0, 0, 10);    (* 0: V *)
      (0, 4, 0, 4);     (* 1: via on 0 *)
      (0, 4, 0, 4);     (* 2: via coinciding with 1 *)
      (0, 10, 0, 14);   (* 3: V continuing 0 *)
      (5, 0, 5, 6);     (* 4: V, alone *)
      (5, 7, 5, 7);     (* 5: via just past 4's end *)
      (0, 14, 0, 14);   (* 6: via on 3's end *)
      (1, 4, 1, 4) ]    (* 7: via beside 1 *)
  in
  Alcotest.(check (list (pair int int)))
    "vertical contacts"
    [ (0, 1); (0, 2); (0, 3); (1, 2); (3, 6) ]
    (contacts (boxes_of segs))

(* A chessboard-M1-like layer: stubs and via points, no vertical. *)
let test_sweepline_no_verticals () =
  let segs =
    [ (0, 0, 10, 0);    (* 0: H *)
      (10, 0, 20, 0);   (* 1: H touching 0's end *)
      (3, 0, 3, 0);     (* 2: via on 0 *)
      (3, 0, 3, 0);     (* 3: via coinciding with 2 *)
      (10, 0, 10, 0);   (* 4: via on the 0-1 junction *)
      (21, 0, 21, 0);   (* 5: via just past 1 *)
      (0, 2, 4, 2);     (* 6: H on another row *)
      (4, 2, 4, 2) ]    (* 7: via on 6's end *)
  in
  Alcotest.(check (list (pair int int)))
    "horizontal contacts"
    [ (0, 1); (0, 2); (0, 3); (0, 4); (1, 4); (2, 3); (6, 7) ]
    (contacts (boxes_of segs))

let test_sweepline_rejects_rect () =
  Alcotest.check_raises "extended in both axes"
    (Invalid_argument
       "Sweepline.contacts: box 7 is extended in both axes [0, 1] x [0, 1]")
    (fun () ->
       ignore
         (contacts
            (boxes_of (List.init 7 (fun i -> (i, 5, i, 5)) @ [ (0, 0, 1, 1) ]))))

(* Random shape soups against the quadratic all-pairs oracle, on the
   integer grid.  Fixed coordinates (y of a horizontal, x of a vertical,
   both of a point) lie on an even lattice of [pitch] units; the start of
   a shape drawn from an earlier one sits on that shape's end or one unit
   past or before it, so gaps that must touch and gaps that must miss
   both occur.  Shapes are fresh (horizontal, vertical, or a zero-length
   segment, i.e. a point), copies of an earlier shape (coincident points,
   stacked wires), collinear continuations of one, or T-junctions on
   one's end.  A pitch of 6,000,002 units spreads keys over about 2^27
   units, past one radix digit. *)
type spec =
  | Fresh of int * int * int * int  (* orientation, x, y, length (lattice) *)
  | Copy of int
  | Continue of int * int * int     (* earlier shape, gap, length *)
  | Tee of int * int * int

let gaps = [| 0; 1; -1 |]

let gen_specs =
  let open QCheck.Gen in
  let grid = int_range 0 24 and len = int_range 1 8 in
  let earlier = int_range 0 1000 and gap = int_range 0 (Array.length gaps - 1) in
  pair (oneofl [ 2; 6_000_002 ])
    (list_size (int_range 1 160)
       (frequency
          [ (10, map (fun (o, x, y, l) -> Fresh (o, x, y, l))
                 (quad (int_range 0 2) grid grid len));
            (3, map (fun i -> Copy i) earlier);
            (3, map (fun (i, g, l) -> Continue (i, g, l)) (triple earlier gap len));
            (4, map (fun (i, g, l) -> Tee (i, g, l)) (triple earlier gap len)) ]))

let segs_of_specs (pitch, specs) =
  let out = Array.make (List.length specs) (0, 0, 0, 0) in
  List.iteri
    (fun id spec ->
       let base i = out.(i mod Int.max id 1) in
       let at k = pitch * k in
       out.(id) <-
         (match spec with
          | Fresh (0, x, y, l) -> (at x, at y, at (x + l), at y)
          | Fresh (1, x, y, l) -> (at x, at y, at x, at (y + l))
          | Fresh (_, x, y, _) -> (at x, at y, at x, at y)
          | Copy i -> base i
          | Continue (i, g, l) ->
            (* along the earlier shape, from its high end (points extend
               horizontally) *)
            let ax, ay, bx, by = base i in
            if ay = by then
              let hi = Int.max ax bx in
              (hi + gaps.(g), ay, hi + at l, ay)
            else
              let hi = Int.max ay by in
              (ax, hi + gaps.(g), ax, hi + at l)
          | Tee (i, g, l) ->
            (* across the earlier shape's high end, starting at its line *)
            let ax, ay, bx, by = base i in
            if ax <> bx then
              let hi = Int.max ax bx in
              (hi, ay + gaps.(g), hi, ay + at l)
            else
              let hi = Int.max ay by in
              (ax + gaps.(g), hi, ax + at l, hi)))
    specs;
  Array.to_list out

let segs_arb =
  let print segs =
    String.concat "\n"
      (List.mapi
         (fun i (ax, ay, bx, by) -> Printf.sprintf "%d: (%d, %d)-(%d, %d)" i ax ay bx by)
         segs)
  in
  QCheck.make ~print (QCheck.Gen.map segs_of_specs gen_specs)

(* The sweep reports exactly the oracle's pairs, each once (no table
   removes duplicates); with integer coordinates, contact is exact.  Every
   case sweeps in one scratch, left over from the cases before it, as
   LVS's layers share one. *)
let shared_scratch = Geom.Sweepline.scratch ()

let agrees_with_oracle segs =
  let b = boxes_of segs in
  let n = Array.length b.Geom.Sweepline.x0 in
  let touches i j =
    b.x0.(i) <= b.x1.(j) && b.x0.(j) <= b.x1.(i)
    && b.y0.(i) <= b.y1.(j) && b.y0.(j) <= b.y1.(i)
  in
  let oracle = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if touches i j then oracle := (i, j) :: !oracle
    done
  done;
  let calls = ref 0 and pairs = ref [] in
  Geom.Sweepline.contacts shared_scratch b (fun i j ->
      incr calls;
      pairs := (min i j, max i j) :: !pairs);
  !calls = List.length !oracle
  && List.sort compare !pairs = List.sort compare !oracle

let prop_sweepline_matches_all_pairs =
  QCheck.Test.make ~name:"matches all-pairs oracle" ~count:300 segs_arb
    agrees_with_oracle

(* The same oracle on soups whose class mix is skewed, as in routed
   layers, where the sweep's roles follow the counts: all points, no
   verticals, no horizontals, and 9:1 either way (with points).  Each
   shape's class comes from the soup's (horizontal, vertical, point)
   weights.  A shape is fresh on the lattice, a copy of an earlier one
   (same class), or drawn from an earlier shape's high end, off by a
   gap along its own axis: along the earlier shape that is a collinear
   continuation, across it a tee, and a point lands on or beside the
   end. *)
type skewed_spec =
  | S_fresh of int * int * int * int  (* class, x, y, length (lattice) *)
  | S_copy of int
  | S_from of int * int * int * int   (* class, earlier shape, gap, length *)

let mixes =
  [ ("all points", (0, 0, 1)); ("no verticals", (3, 0, 1));
    ("no horizontals", (0, 3, 1)); ("9:1 horizontal", (9, 1, 4));
    ("9:1 vertical", (1, 9, 4)) ]

let gen_skewed =
  let open QCheck.Gen in
  let grid = int_range 0 24 and len = int_range 1 8 in
  let earlier = int_range 0 1000 and gap = int_range 0 (Array.length gaps - 1) in
  oneofl mixes >>= fun (name, (h, v, p)) ->
  let cls =
    frequency
      (List.filter (fun (w, _) -> w > 0) [ (h, return 0); (v, return 1); (p, return 2) ])
  in
  map
    (fun specs -> (name, specs))
    (pair (oneofl [ 2; 6_000_002 ])
       (list_size (int_range 1 160)
          (frequency
             [ (10, map (fun (c, x, y, l) -> S_fresh (c, x, y, l)) (quad cls grid grid len));
               (3, map (fun i -> S_copy i) earlier);
               (7, map (fun (c, (i, g, l)) -> S_from (c, i, g, l))
                     (pair cls (triple earlier gap len))) ])))

let segs_of_skewed (pitch, specs) =
  let out = Array.make (List.length specs) (0, 0, 0, 0) in
  List.iteri
    (fun id spec ->
       let at k = pitch * k in
       out.(id) <-
         (match spec with
          | S_fresh (0, x, y, l) -> (at x, at y, at (x + l), at y)
          | S_fresh (1, x, y, l) -> (at x, at y, at x, at (y + l))
          | S_fresh (_, x, y, _) -> (at x, at y, at x, at y)
          | S_copy i -> out.(i mod Int.max id 1)
          | S_from (c, i, g, l) ->
            let ax, ay, bx, by = out.(i mod Int.max id 1) in
            let hx = Int.max ax bx and hy = Int.max ay by in
            (match c with
             | 0 -> (hx + gaps.(g), hy, hx + at l, hy)
             | 1 -> (hx, hy + gaps.(g), hx, hy + at l)
             | _ -> (hx + gaps.(g), hy, hx + gaps.(g), hy))))
    specs;
  Array.to_list out

let skewed_arb =
  let print (name, segs) =
    String.concat "\n"
      (name
       :: List.mapi
         (fun i (ax, ay, bx, by) -> Printf.sprintf "%d: (%d, %d)-(%d, %d)" i ax ay bx by)
         segs)
  in
  QCheck.make ~print
    (QCheck.Gen.map (fun (name, specs) -> (name, segs_of_skewed specs)) gen_skewed)

let prop_sweepline_skewed_mixes =
  QCheck.Test.make ~name:"skewed class mixes match all-pairs oracle" ~count:300
    skewed_arb (fun (_, segs) -> agrees_with_oracle segs)

(* --- clean layouts certify clean --- *)

let assert_clean what l =
  match Lvs.Check.check l with
  | [] -> ()
  | diags ->
    Alcotest.failf "%s not LVS-clean:\n%s" what (Verify.Report.text diags)

let test_clean_sweep () =
  (* implicitly also the Netbuild cross-check agreement criterion: the
     comparison pass runs it for every capacitor of every clean layout *)
  List.iter
    (fun bits ->
       List.iter
         (fun style ->
            assert_clean
              (Printf.sprintf "%s %d-bit" (Ccplace.Style.name style) bits)
              (layout_of style bits))
         (sweep_styles bits))
    [ 4; 6; 8; 10 ]

let test_clean_parallel_wires () =
  let bits = 8 in
  assert_clean "spiral 8-bit p=3"
    (layout_of
       ~p_of_cap:(Ccroute.Layout.msb_parallel ~bits ~p:3)
       Ccplace.Style.Spiral bits)

let test_odd_chessboard () =
  (* the cell-doubling odd-N chessboard of [7] through the full pass *)
  List.iter
    (fun bits ->
       let p = Ccplace.Style.place ~bits Ccplace.Style.Chessboard in
       Alcotest.(check int)
         (Printf.sprintf "%d-bit unit multiplier" bits)
         2 p.Ccgrid.Placement.unit_multiplier;
       assert_clean
         (Printf.sprintf "chessboard %d-bit" bits)
         (Ccroute.Layout.route tech p))
    [ 5; 7 ]

let test_stub_planarity_repair () =
  (* Regression for a router defect this engine caught: with tracks
     assigned from each connection's first attach side alone, block
     chessboards could put a left-strapping net on a track right of a
     net strapping from the other side at the same row — overlapping M1
     stubs, a real short (e.g. block-chess(core=5,g=1) 7-bit shorted
     C_3/C_4).  Plan.make now orders tracks topologically and
     re-attaches groups to break precedence cycles; the once-shorting
     configurations must certify clean. *)
  List.iter
    (fun (bits, core_bits, granularity) ->
       let style = Ccplace.Style.Block_chess { core_bits; granularity } in
       assert_clean
         (Printf.sprintf "block-chess(core=%d,g=%d) %d-bit" core_bits
            granularity bits)
         (layout_of style bits))
    [ (7, 5, 1); (7, 5, 2); (7, 5, 4); (8, 6, 4); (9, 7, 2) ]

let test_stats_sane () =
  let r = Lvs.Check.run spiral6 in
  Alcotest.(check (list string)) "clean" [] (fired r.Lvs.Check.diagnostics);
  let s = r.Lvs.Check.stats in
  Alcotest.(check bool) "shapes counted" true (s.Lvs.Check.shapes > 100);
  Alcotest.(check bool) "contacts counted" true
    (s.Lvs.Check.contacts > s.Lvs.Check.shapes / 2);
  (* clean layout: one component per capacitor net plus the top plate *)
  Alcotest.(check int) "components" 8 s.Lvs.Check.components

(* --- pinned outputs of the signoff designs --- *)

(* The sorted contact pairs extraction finds on one metal layer, as
   shape ids. *)
let layer_contacts (shapes : Lvs.Shape.t) layer =
  let pairs = ref [] in
  Lvs.Extracted.contacts shapes layer (fun a b ->
      pairs := (min a b, max a b) :: !pairs);
  List.sort compare !pairs

let flat l =
  match Lvs.Shape.of_layout l with
  | Ok shapes -> shapes
  | Error diags -> Alcotest.failf "off the grid:\n%s" (Verify.Report.text diags)

let pairs_digest pairs =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) pairs)))

(* The 16 Table III designs the signoff benchmark times, routed as the
   flow routes them: LVS stats (shapes, contacts, components) and an MD5
   of each metal layer's sorted contact pairs (M1, M2, M3). *)
let signoff_pins =
  [ ("rowwise 6-bit", (251, 311, 8),
     [ "c22c3ad674f42f0edd14b4c408d9a359"; "3cad42ae069befc1e273d3d716889a3c";
       "89acdac7dc483733861509f4749cfb30" ]);
    ("chessboard 6-bit", (315, 315, 8),
     [ "55ff9be47142879f969e1e6151252ad8"; "464515937b632429c03ce19f48dfb743";
       "f62154a5067ae7bc91eabbd3954c145f" ]);
    ("spiral 6-bit", (242, 299, 8),
     [ "0eec3fe7b5a1a3359d46e6f469f667e8"; "b7a98c0da363782b3501dd27ce1693a1";
       "8161e82ce69946777f8d9da627885b85" ]);
    ("block-chess(core=4,g=2) 6-bit", (269, 323, 8),
     [ "198a890120b45ac6c1c4a6c41eee8ec0"; "b503a1bfa4f64ea394269b389e29997f";
       "d4fe8b044cdb32ea839fd5c9a82472c0" ]);
    ("rowwise 8-bit", (869, 1149, 10),
     [ "a9a649b4cb530c49517a11b527d9bfee"; "21912e70658de04c7c17f0ea3e59763e";
       "568f4d7b8150f17d7e4e06f4301c6f75" ]);
    ("chessboard 8-bit", (1131, 1137, 10),
     [ "68f65486f1dd910153253c1e509ee8b0"; "7c5606ac58ae308af9bc6b4928f04833";
       "cd770041d799f51618a85eccaabb1aa0" ]);
    ("spiral 8-bit", (832, 1127, 10),
     [ "665f9cfd9b983eafc0b398370c244f68"; "d1d75d8f1c9cb64a54e2d588132d8a58";
       "7aab8941ed85c1bc1cecc35edf5926db" ]);
    ("block-chess(core=6,g=2) 8-bit", (957, 1182, 10),
     [ "3eca0d39d1b4ba498a062a3cacbf1cbd"; "8e7e7613a47d1b63570f23ab99b43225";
       "aae733dcac640ed3398827213645a79f" ]);
    ("rowwise 10-bit", (3331, 4454, 12),
     [ "85563ddd60d1fc29212fb5f6f0ddab1c"; "6ef636d184b56eb2419b272e5934cdfb";
       "b63b0971a4050a9820c63ae89437a769" ]);
    ("chessboard 10-bit", (4291, 4311, 12),
     [ "bac21359036fd5697adf945394069eca"; "e7db50c5b30c4b9972997891ec0a8a24";
       "fc7f747225ba65f6a1cc3a9c5c4b3975" ]);
    ("spiral 10-bit", (3158, 4327, 12),
     [ "506d951690960f277f415e8f209cb602"; "8be98cd355be9c3760ac5489af6c7a7f";
       "798493551ea7046a77fdf2de8921cb79" ]);
    ("block-chess(core=8,g=2) 10-bit", (3597, 4570, 12),
     [ "18c56a62da29b6006b1be97498c12a03"; "69747e231cb0479aca8fc33c9cc1a491";
       "8fe2dea724461b1bbf1a0f493ae4f56b" ]);
    ("rowwise 12-bit", (13053, 17581, 14),
     [ "b1cc26f80c629649e3681389b9e5d808"; "5f621b56e0d464bb7c7538eca5a818bb";
       "b49a72abb5831ae8ffe98075580791b3" ]);
    ("chessboard 12-bit", (16747, 16797, 14),
     [ "c688ac806ef0e35f10abe858914a16ff"; "dccc2fae9821344c45cd931d31c82c7c";
       "46558a296e78b8a54ad8e99e3f8818fc" ]);
    ("spiral 12-bit", (12412, 16867, 14),
     [ "5a427713b719a080b09463b6d8623158"; "3eff43ed6760cd3f125729ec0389c997";
       "69d5fb6c2ec5da7b083ce0df07ad8a08" ]);
    ("block-chess(core=10,g=2) 12-bit", (13997, 17814, 14),
     [ "dc13a829542c5c60982dd24a08283a0c"; "1e61b0ce5af520a9608065b5e6fa1035";
       "6310a881a71db630ab552bcc0cdf8928" ]) ]

(* the 16 designs, named, routed once for every test that reads them *)
let signoff_layouts =
  lazy
    (List.concat_map
       (fun bits ->
          List.map
            (fun style ->
               ( Printf.sprintf "%s %d-bit" (Ccplace.Style.name style) bits,
                 layout_of ~p_of_cap:(Ccdac.Flow.default_parallel ~bits style)
                   style bits ))
            Ccplace.Style.[ Rowwise; Chessboard; Spiral; block_default ~bits ])
       [ 6; 8; 10; 12 ])

let test_signoff_pins () =
  let actual =
    List.map
      (fun (name, l) ->
         let s = (Lvs.Check.run l).Lvs.Check.stats in
         let shapes = flat l in
         ( name,
           (s.Lvs.Check.shapes, s.Lvs.Check.contacts, s.Lvs.Check.components),
           List.map
             (fun layer -> pairs_digest (layer_contacts shapes layer))
             Tech.Layer.[ M1; M2; M3 ] ))
      (Lazy.force signoff_layouts)
  in
  Alcotest.(check (list (triple string (triple int int int) (list string))))
    "stats and per-layer contact digests" signoff_pins actual

(* The sweep's work, one key per index per radix sort (lvs/sort_keys).
   Horizontals, verticals and points number 19,711, 2,160 and 8,866 on
   M1 over the 16 designs, 16, 480 and 0 on M2, and 0, 699 and 8,866 on
   M3.  Sorting every point in both collinear scans and the major class
   for the crossing, as the sweep did before the minor class drove it,
   ordered 156,514 keys here and 50,796 for the 12-bit chessboard, whose
   M1 has no verticals. *)
let test_sort_keys_pinned () =
  let keys l = (Lvs.Extracted.extract (flat l)).Lvs.Extracted.sort_keys in
  let layouts = Lazy.force signoff_layouts in
  Alcotest.(check int) "16 signoff designs" 85_948
    (List.fold_left (fun acc (_, l) -> acc + keys l) 0 layouts);
  let chessboard12 = List.assoc "chessboard 12-bit" layouts in
  let (_ : Lvs.Check.result), dump =
    Telemetry.Metrics.collect (fun () -> Lvs.Check.run chessboard12)
  in
  Alcotest.(check (option (float 0.))) "12-bit chessboard gauge"
    (Some 25_602.) (Telemetry.Metrics.gauge dump "lvs/sort_keys")

(* --- mutation harness --- *)

(* Every mutation starts from a certified-clean layout and must fire
   exactly the expected lvs/* rule ids — no more, no fewer. *)

(* [mutate_wires f l] rebuilds [l]'s bottom-plate wire table from [f]
   applied to its wires in table order. *)
let mutate_wires f l =
  { l with L.wires = L.Wires.of_list (f (L.Wires.to_list l.L.wires)) }

let mutate_top_wires f l =
  { l with L.top_wires = L.Wires.of_list (f (L.Wires.to_list l.L.top_wires)) }

(* an attach point whose group straps to its trunk at exactly one cell,
   so removing that via provably detaches the group *)
let single_attach_of l k =
  let net = L.net l k in
  let all = List.concat_map (attaches l) net.L.cn_trunks in
  List.find_opt
    (fun a -> List.length (List.filter (fun b -> b.a_group = a.a_group) all) = 1)
    all

let test_mut_drop_attach_via () =
  let l = spiral6 in
  let rec pick k =
    if k > l.L.placement.Ccgrid.Placement.bits then
      Alcotest.fail "no single-attach group found"
    else
      match single_attach_of l k with
      | Some a -> (k, a)
      | None -> pick (k + 1)
  in
  let k, a = pick 0 in
  let vias =
    List.filter
      (fun (v : L.via) ->
         not
           (v.L.v_cap = k && near v.L.v_x a.a_x && near v.L.v_y a.a_y))
      l.L.vias
  in
  Alcotest.(check int) "one via dropped"
    (List.length l.L.vias - 1)
    (List.length vias);
  check_fired "drop attach via"
    [ "lvs/floating-cell"; "lvs/open" ]
    (Lvs.Check.check { l with L.vias })

let test_mut_drop_bridge () =
  let l = spiral6 in
  let k =
    match
      Array.find_opt (fun (n : L.capnet) -> n.L.cn_bridge_y <> None) l.L.nets
    with
    | Some n -> n.L.cn_cap
    | None -> Alcotest.fail "no bridged net in spiral6"
  in
  let mutated =
    mutate_wires
      (List.filter
         (fun (w : L.wire) -> not (w.L.w_cap = k && w.L.w_kind = L.Bridge)))
      l
  in
  check_fired "delete bridge segment"
    [ "lvs/floating-cell"; "lvs/open" ]
    (Lvs.Check.check mutated)

let primary_x l k =
  match
    List.find_opt (fun (tk : L.trunk) -> tk.L.tk_primary) (L.net l k).L.cn_trunks
  with
  | Some tk -> tk.L.tk_x
  | None -> Alcotest.failf "C_%d has no primary trunk" k

let test_mut_nudge_trunk () =
  (* move only the trunk WIRE of C_5 onto C_6's track: its own vias stay
     behind (open + floating cells) while the metal lands on a foreign
     net (short) *)
  let l = spiral6 in
  let xa = primary_x l 5 and xb = primary_x l 6 in
  let mutated =
    mutate_wires
      (List.map (fun (w : L.wire) ->
           if w.L.w_cap = 5 && w.L.w_kind = L.Trunk && near w.L.w_ax xa then
             { w with L.w_ax = xb; w_bx = xb }
           else w))
      l
  in
  check_fired "nudge trunk onto neighbouring track"
    [ "lvs/floating-cell"; "lvs/open"; "lvs/short" ]
    (Lvs.Check.check mutated)

(* a single-trunk capacitor sharing a channel with another net's trunk,
   over a set of candidate layouts *)
let find_merge_pair () =
  let candidates =
    [ spiral6;
      layout_of Ccplace.Style.Chessboard 6;
      layout_of Ccplace.Style.Spiral 8;
      layout_of Ccplace.Style.Rowwise 6 ]
  in
  let of_layout l =
    let found = ref None in
    Array.iter
      (fun (na : L.capnet) ->
         match na.L.cn_trunks with
         | [ tka ] ->
           Array.iter
             (fun (nb : L.capnet) ->
                if nb.L.cn_cap <> na.L.cn_cap then
                  List.iter
                    (fun (tkb : L.trunk) ->
                       if
                         tkb.L.tk_channel = tka.L.tk_channel && !found = None
                       then
                         found := Some (na.L.cn_cap, tka.L.tk_x, tkb.L.tk_x))
                    nb.L.cn_trunks)
             l.L.nets
         | _ -> ())
      l.L.nets;
    Option.map (fun (a, xa, xb) -> (l, a, xa, xb)) !found
  in
  match List.find_map of_layout candidates with
  | Some r -> r
  | None -> Alcotest.fail "no mergeable track pair in candidate layouts"

let test_mut_merge_tracks () =
  (* move C_a's whole bundle — trunk, vias, stub ends — onto a
     channel-mate's track: the net stays whole but lands on foreign
     metal, a pure short *)
  let l, a, xa, xb = find_merge_pair () in
  let mutated =
    { (mutate_wires
         (List.map (fun (w : L.wire) ->
              if w.L.w_cap = a && w.L.w_kind = L.Trunk && near w.L.w_ax xa
              then { w with L.w_ax = xb; w_bx = xb }
              else if
                w.L.w_cap = a && w.L.w_kind = L.Stub && near w.L.w_bx xa
              then { w with L.w_bx = xb }
              else w))
         l)
      with
      L.vias =
        List.map
          (fun (v : L.via) ->
             if v.L.v_cap = a && near v.L.v_x xa then { v with L.v_x = xb }
             else v)
          l.L.vias }
  in
  check_fired "merge two tracks" [ "lvs/short" ] (Lvs.Check.check mutated)

let test_mut_dangling_via () =
  let l = spiral6 in
  (* above the top row of cells: inside the outline, touching nothing *)
  let v =
    { L.v_cap = 3; v_x = l.L.width /. 2.; v_y = l.L.height -. 1e-3; v_p = 1 }
  in
  check_fired "inject stray via" [ "lvs/dangling" ]
    (Lvs.Check.check { l with L.vias = v :: l.L.vias })

(* Geometry untouched, plan corrupted: the RC tree silently models
   fewer cells than the drawn net connects.  Drops a group that owns >= 2
   cells: its attach cell survives in the tree through the stub strap, so
   only a multi-cell group leaves a detectable hole in cell_nodes. *)
let drop_group l =
  let k, victim =
    let found = ref None in
    Array.iter
      (fun (n : L.capnet) ->
         if !found = None then
           match
             Array.find_opt
               (fun g -> Ccroute.Group.size l.L.groups g >= 2)
               n.L.cn_groups
           with
           | Some g -> found := Some (n.L.cn_cap, g)
           | None -> ())
      l.L.nets;
    match !found with
    | Some r -> r
    | None -> Alcotest.fail "no multi-cell group in spiral6"
  in
  let net = L.net l k in
  let nets = Array.copy l.L.nets in
  nets.(k) <-
    { net with
      L.cn_groups =
        Array.of_list
          (List.filter (fun g -> g <> victim) (Array.to_list net.L.cn_groups)) };
  { l with L.nets }

let test_mut_netbuild_mismatch () =
  check_fired "drop a group from the plan"
    [ "lvs/netbuild-mismatch" ]
    (Lvs.Check.check (drop_group spiral6))

(* Geometry untouched, plan corrupted: C_3's group 4 straps to its trunk
   at exactly one cell, and that strap leaves the net's trunk metadata.
   The group's abutments still reach every cell, so the RC model has the
   drawn cells but falls into two pieces. *)
let drop_only_strap l =
  let k = 3 and group = 4 in
  let net = L.net l k in
  let straps =
    List.concat_map
      (fun (tk : L.trunk) ->
         List.filter (fun g -> g = group) (Array.to_list tk.L.tk_attaches))
      net.L.cn_trunks
  in
  Alcotest.(check int) "C_3 group 4 has one strap" 1 (List.length straps);
  let nets = Array.copy l.L.nets in
  nets.(k) <-
    { net with
      L.cn_trunks =
        List.map
          (fun (tk : L.trunk) ->
             { tk with
               L.tk_attaches =
                 Array.of_list
                   (List.filter (fun g -> g <> group)
                      (Array.to_list tk.L.tk_attaches)) })
          net.L.cn_trunks };
  { l with L.nets }

let test_mut_dropped_strap () =
  let l = drop_only_strap spiral6 in
  Alcotest.(check int) "the verify gate passes it" 0
    (List.length (Verify.Engine.check_artifacts l));
  check_fired "drop a group's only strap" [ "lvs/netbuild-mismatch" ]
    (Lvs.Check.check l)

(* --- unrouted capacitors: triage instead of crash --- *)

let unrouted_layout k l =
  let nets = Array.copy l.L.nets in
  nets.(k) <- { (L.net l k) with L.cn_trunks = []; cn_bridge_y = None };
  { (mutate_wires
       (List.filter (fun (w : L.wire) ->
            not
              (w.L.w_cap = k
               && (w.L.w_kind = L.Trunk || w.L.w_kind = L.Stub
                   || w.L.w_kind = L.Bridge))))
       l)
    with
    L.nets;
    vias = List.filter (fun (v : L.via) -> v.L.v_cap <> k) l.L.vias }

let test_unrouted_is_open () =
  check_fired "unrouted net" [ "lvs/open" ]
    (Lvs.Check.check (unrouted_layout 2 spiral6))

let test_netbuild_unrouted_rejected () =
  let l = unrouted_layout 2 spiral6 in
  match Extract.Netbuild.build l ~cap:2 with
  | _ -> Alcotest.fail "expected Verify.Engine.Rejected"
  | exception Verify.Engine.Rejected { what; diagnostics } ->
    Alcotest.(check string) "artifact name" "RC extraction of C_2" what;
    check_fired "rejected diagnostics" [ "lvs/open" ] diagnostics

(* --- corrupted layouts: reported under a rule id, never raised --- *)

let run_lvs what l =
  match Lvs.Check.run l with
  | r -> r
  | exception e ->
    Alcotest.failf "%s: Lvs.Check.run raised %s" what (Printexc.to_string e)

let no_stats = { Lvs.Check.shapes = 0; contacts = 0; components = 0 }

let test_unknown_net_via () =
  (* a driver-row via naming C_7 of a 6-bit array (nets C_0..C_6) *)
  let shapes = (Lvs.Check.run spiral6).Lvs.Check.stats.Lvs.Check.shapes in
  let k = Array.length spiral6.L.nets in
  let via = { L.v_cap = k; v_x = 0.; v_y = 0.; v_p = 1 } in
  let r = run_lvs "via" { spiral6 with L.vias = spiral6.L.vias @ [ via ] } in
  Alcotest.(check (list (triple string string string)))
    "one unknown-net diagnostic naming the via"
    [ ( "lvs/unknown-net",
        "C_7",
        Printf.sprintf
          "shape %d (via on M1+M3) names C_7, but the layout's nets are \
           C_0..C_6"
          shapes ) ]
    (triples r.Lvs.Check.diagnostics);
  Alcotest.(check bool) "not extracted" true (r.Lvs.Check.stats = no_stats)

let test_unknown_net_wire () =
  let k = Array.length spiral6.L.nets in
  let l =
    mutate_wires
      (function
        | w :: rest -> { w with L.w_cap = k } :: rest
        | [] -> Alcotest.fail "spiral6 has no wires")
      spiral6
  in
  let r = run_lvs "wire" l in
  Alcotest.(check (list (pair string string)))
    "one unknown-net diagnostic on C_7"
    [ ("lvs/unknown-net", "C_7") ]
    (List.map (fun (id, loc, _) -> (id, loc)) (triples r.Lvs.Check.diagnostics));
  Alcotest.(check bool) "not extracted" true (r.Lvs.Check.stats = no_stats)

let test_top_plate_via () =
  (* vias are net terminals: one on the top plate names no net either *)
  let via = { L.v_cap = -1; v_x = 0.; v_y = 0.; v_p = 1 } in
  let r = run_lvs "top via" { spiral6 with L.vias = via :: spiral6.L.vias } in
  Alcotest.(check (list string)) "rules" [ "lvs/unknown-net" ]
    (fired r.Lvs.Check.diagnostics)

let test_diagonal_wire () =
  (* one branch's end moved 0.5 um in x and y: verify's direction rule
     fires, and LVS reports the wire instead of handing the sweep a box
     extended in both axes *)
  let shapes = (Lvs.Check.run spiral6).Lvs.Check.stats.Lvs.Check.shapes in
  let wires = L.Wires.to_list spiral6.L.wires in
  let i, w =
    match List.find_index (fun (w : L.wire) -> w.L.w_kind = L.Branch) wires with
    | Some i -> (i, List.nth wires i)
    | None -> Alcotest.fail "spiral6 has no branch"
  in
  let moved = { w with L.w_bx = w.L.w_bx +. 0.5; w_by = w.L.w_by +. 0.5 } in
  let l =
    mutate_wires (List.mapi (fun j w' -> if j = i then moved else w')) spiral6
  in
  Alcotest.(check bool) "verify reports the direction" true
    (List.mem "route/reserved-direction"
       (fired (Verify.Engine.check_artifacts l)));
  (* shape ids: the plates, then the wires in layout order *)
  let id =
    shapes - List.length l.L.vias - L.Wires.length l.L.top_wires
    - L.Wires.length l.L.wires + i
  in
  let r = run_lvs "diagonal branch" l in
  Alcotest.(check (list (triple string string string)))
    "one diagonal diagnostic naming the wire"
    [ ( "lvs/diagonal",
        Printf.sprintf "C_%d" w.L.w_cap,
        Printf.sprintf
          "shape %d (branch on M1) from (%.6f, %.6f) to (%.6f, %.6f) um runs \
           along both axes"
          id w.L.w_ax w.L.w_ay moved.L.w_bx moved.L.w_by ) ]
    (triples r.Lvs.Check.diagnostics);
  Alcotest.(check bool) "not extracted" true (r.Lvs.Check.stats = no_stats)

let test_lattice_length () =
  (* flatten reads the lattice by placement column and row: a short one
     made it raise an index error, a long one lets a lookup find a
     column the placement does not have.  LVS reports the verify rule
     and does not extract. *)
  List.iter
    (fun (what, l, detail) ->
       let r = run_lvs what l in
       Alcotest.(check (list (triple string string string)))
         what
         [ ("route/lattice", "-", detail) ]
         (triples r.Lvs.Check.diagnostics);
       Alcotest.(check bool) (what ^ ": not extracted") true
         (r.Lvs.Check.stats = no_stats))
    [ ( "col_x short",
        { spiral6 with L.col_x = Array.sub spiral6.L.col_x 0 7 },
        "col_x holds 7 centres for 8 placement columns" );
      ( "col_x long",
        { spiral6 with L.col_x = Array.append spiral6.L.col_x [| 20. |] },
        "col_x holds 9 centres for 8 placement columns" );
      ( "row_y short",
        { spiral6 with L.row_y = Array.sub spiral6.L.row_y 0 7 },
        "row_y holds 7 centres for 8 placement rows" );
      ( "row_y long",
        { spiral6 with L.row_y = Array.append spiral6.L.row_y [| 20. |] },
        "row_y holds 9 centres for 8 placement rows" ) ]

let test_zero_parallel_lvs () =
  (* C_8 with a parallel-wire count of 0, then with none at all: its RC
     tree cannot be built, and the cross-check names the plan's rule
     instead of blaming Netbuild *)
  let l = layout_of Ccplace.Style.Chessboard 8 in
  let p_of_cap = Array.copy l.L.p_of_cap in
  p_of_cap.(8) <- 0;
  let r = run_lvs "p = 0" { l with L.p_of_cap } in
  Alcotest.(check (list (pair string string)))
    "C_8 has no valid parallel-wire count"
    [ ("route/parallel-positive", "C_8") ]
    (List.map (fun (id, loc, _) -> (id, loc)) (triples r.Lvs.Check.diagnostics));
  let r = run_lvs "no p" { l with L.p_of_cap = Array.sub l.L.p_of_cap 0 8 } in
  Alcotest.(check (list (pair string string)))
    "C_8 has no parallel-wire count"
    [ ("route/parallel-positive", "C_8") ]
    (List.map (fun (id, loc, _) -> (id, loc)) (triples r.Lvs.Check.diagnostics))

(* --- Netbuild's topology pass against its RC tree --- *)

(* Netbuild.build as it stood before the topology pass was split out of
   it, the reference for both: nodes created in numbering order with
   their capacitances (a cell's unit capacitor at creation), then the
   candidate edges stage by stage through a union-find, each kept edge
   adding its resistance and half its wire capacitance to each end.
   Written over lists and a Hashtbl; returns the tree, its root and the
   modelled cells with their nodes, in node order. *)
let reference_build (l : L.t) ~cap =
  let tech = l.L.tech in
  let net = L.net l cap in
  if net.L.cn_trunks = [] then
    raise
      (Verify.Engine.Rejected
         { what = Printf.sprintf "RC extraction of C_%d" cap;
           diagnostics =
             [ Diag.makef ~loc:(Printf.sprintf "C_%d" cap)
                 Verify.Lvs_rules.r_open
                 "capacitor has no routed net: no trunk reaches the driver \
                  row, so no RC tree can be built" ] });
  let p = l.L.p_of_cap.(cap) in
  let m1 = Tech.Process.layer tech Tech.Layer.M1 in
  let m3 = Tech.Process.layer tech Tech.Layer.M3 in
  let rvia = Tech.Parallel.via_resistance tech ~p in
  let wire layer len =
    ( Tech.Parallel.wire_resistance layer ~length:len ~p,
      Tech.Parallel.wire_capacitance layer ~length:len ~p )
  in
  let trunks = Array.of_list net.L.cn_trunks in
  let heights =
    Array.map
      (fun (tk : L.trunk) ->
         Array.of_list
           (List.sort_uniq Float.compare
              (tk.L.tk_y_low :: List.map (fun a -> a.a_y) (attaches l tk))))
      trunks
  in
  let tree = Rcnet.Rctree.create () in
  let node c = (Rcnet.Rctree.add_node tree ~cap:c () :> int) in
  let root = node 0. in
  let numbered = Hashtbl.create 64 and cells = ref [] in
  let cell_node (c : Ccgrid.Cell.t) =
    match Hashtbl.find_opt numbered (c.row, c.col) with
    | Some n -> n
    | None ->
      let n = node tech.Tech.Process.unit_cap in
      Hashtbl.add numbered (c.row, c.col) n;
      cells := (c, n) :: !cells;
      n
  in
  let first = Array.make (Array.length trunks) 0 in
  Array.iteri
    (fun t (tk : L.trunk) ->
       first.(t) <- node 0.;
       for _ = 2 to Array.length heights.(t) do
         ignore (node 0.)
       done;
       List.iter (fun a -> ignore (cell_node a.a_cell)) (attaches l tk))
    trunks;
  let primary =
    match
      List.filter
        (fun t -> trunks.(t).L.tk_primary)
        (List.init (Array.length trunks) Fun.id)
    with
    | t :: _ -> t
    | [] -> invalid_arg "Netbuild.build: net has no primary trunk"
  in
  let taps =
    if net.L.cn_bridge_y = None then []
    else
      List.map
        (fun t -> (t, node 0.))
        (List.stable_sort
           (fun a b -> Float.compare trunks.(a).L.tk_x trunks.(b).L.tk_x)
           (List.init (Array.length trunks) Fun.id))
  in
  Array.iter
    (fun g ->
       List.iter
         (fun (a, b) ->
            ignore (cell_node b);
            ignore (cell_node a))
         (edge_cells l g))
    net.L.cn_groups;
  let parent = Array.init (Rcnet.Rctree.num_nodes tree) Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let edge a b (r, c) =
    let ra = find a and rb = find b in
    if ra <> rb then begin
      parent.(ra) <- rb;
      Rcnet.Rctree.wire_edge tree
        (Rcnet.Rctree.node_of_int tree a)
        (Rcnet.Rctree.node_of_int tree b)
        ~r ~c
    end
  in
  let trunk_node t y =
    let ys = heights.(t) in
    let rec at i =
      if i = Array.length ys then
        invalid_arg "Netbuild.build: attach height is not a trunk event"
      else if Float.equal ys.(i) y then first.(t) + i
      else at (i + 1)
    in
    at 0
  in
  let bottom t = trunk_node t trunks.(t).L.tk_y_low in
  edge root (bottom primary) (rvia, 0.);
  List.iter (fun (t, tap) -> edge tap (bottom t) (rvia, 0.)) taps;
  let rec bridge = function
    | (a, ta) :: ((b, tb) :: _ as rest) ->
      edge ta tb
        (wire m1 (Float.abs (trunks.(b).L.tk_x -. trunks.(a).L.tk_x)));
      bridge rest
    | [ _ ] | [] -> ()
  in
  bridge taps;
  Array.iteri
    (fun t ys ->
       for i = 1 to Array.length ys - 1 do
         edge (first.(t) + i - 1) (first.(t) + i) (wire m3 (ys.(i) -. ys.(i - 1)))
       done)
    heights;
  Array.iteri
    (fun t (tk : L.trunk) ->
       List.iter
         (fun a ->
            let cell = a.a_cell in
            let r, c =
              wire m1 (Float.abs (l.L.col_x.(cell.Ccgrid.Cell.col) -. a.a_x))
            in
            edge (trunk_node t a.a_y) (cell_node cell) (rvia +. r, c))
         (attaches l tk))
    trunks;
  Array.iter
    (fun g ->
       List.iter
         (fun ((a : Ccgrid.Cell.t), (b : Ccgrid.Cell.t)) ->
            let len =
              Float.abs (l.L.col_x.(a.col) -. l.L.col_x.(b.col))
              +. Float.abs (l.L.row_y.(a.row) -. l.L.row_y.(b.row))
            in
            edge (cell_node a) (cell_node b)
              (tech.Tech.Process.plate_resistance *. len, 0.))
         (edge_cells l g))
    net.L.cn_groups;
  (tree, Rcnet.Rctree.node_of_int tree root, List.rev !cells)

(* A call's value, or the exception it raised, rendered *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception Verify.Engine.Rejected { what; diagnostics } ->
    Error
      (Printf.sprintf "Rejected (%s): %s" what
         (String.concat "; "
            (List.map (fun (r, l, d) -> String.concat " " [ r; l; d ])
               (triples diagnostics))))
  | exception Invalid_argument m -> Error ("Invalid_argument " ^ m)

let outcome_name = function
  | Ok _ -> "a value"
  | Error e -> e

(* bitwise: every node capacitance, then every edge's ends and
   resistance in insertion order *)
let tree_digest t =
  let b = Buffer.create 1024 in
  Array.iter (fun c -> Printf.bprintf b "%h " c) (Rcnet.Rctree.node_caps t);
  for e = 0 to Rcnet.Rctree.num_edges t - 1 do
    let a, c, r = Rcnet.Rctree.edge t e in
    Printf.bprintf b "(%d %d %h)" (a :> int) (c :> int) r
  done;
  Buffer.contents b

let cell_names cells =
  List.map
    (fun (c : Ccgrid.Cell.t) -> Printf.sprintf "(%d,%d)" c.row c.col)
    cells

(* the cells of row-major ids on [l]'s grid, named like [cell_names] *)
let id_names (l : L.t) ids =
  let cols = l.L.placement.Ccgrid.Placement.cols in
  List.map
    (fun id -> Printf.sprintf "(%d,%d)" (id / cols) (id mod cols))
    (Array.to_list ids)

(* Every net of [l] through the reference, the topology pass and the
   build: the same exception, or the same cells in the same order, a
   piece count of nodes minus kept edges — above 1 exactly when
   orienting the tree raises — and a bitwise-equal tree.  Returns how
   many nets fell into pieces and how many raised. *)
let check_topology what l =
  let topology = Extract.Netbuild.topology l in
  let build = Extract.Netbuild.builder l in
  let split = ref 0 and raised = ref 0 in
  for cap = 0 to Array.length l.L.nets - 1 do
    let where = Printf.sprintf "%s C_%d" what cap in
    match
      ( outcome (fun () -> reference_build l ~cap),
        outcome (fun () -> topology ~cap),
        outcome (fun () -> build ~cap) )
    with
    | Error e, Error e', Error e'' ->
      incr raised;
      Alcotest.(check string) (where ^ ": topology raises alike") e e';
      Alcotest.(check string) (where ^ ": build raises alike") e e''
    | Ok (tree, root, cells), Ok tp, Ok nb ->
      let names = cell_names (List.map fst cells) in
      Alcotest.(check (list string)) (where ^ ": topology cells") names
        (id_names l tp.Extract.Netbuild.modelled);
      Alcotest.(check (list string)) (where ^ ": build cells") names
        (id_names l nb.Extract.Netbuild.cells);
      let pieces = tp.Extract.Netbuild.pieces in
      Alcotest.(check int) (where ^ ": pieces = nodes - kept edges")
        (Rcnet.Rctree.num_nodes tree - Rcnet.Rctree.num_edges tree)
        pieces;
      let orient_raises =
        match Rcnet.Rctree.orient tree ~root with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      Alcotest.(check bool) (where ^ ": in pieces exactly when orient raises")
        orient_raises (pieces > 1);
      if pieces > 1 then incr split;
      Alcotest.(check string) (where ^ ": the same RC tree") (tree_digest tree)
        (tree_digest nb.Extract.Netbuild.tree);
      Alcotest.(check (list int)) (where ^ ": the same cell nodes")
        (List.map snd cells)
        (List.map
           (fun (n : Rcnet.Rctree.node) -> (n :> int))
           (Array.to_list nb.Extract.Netbuild.cell_nodes))
    | r, t, b ->
      Alcotest.failf "%s: the reference gives %s, the topology pass %s and \
                      the build %s" where (outcome_name r) (outcome_name t)
        (outcome_name b)
  done;
  (!split, !raised)

(* test_regression's golden designs: every style and block-chess
   granularity at 6-10 bits and the four Table III styles at 12 *)
let golden_designs =
  List.concat_map
    (fun bits ->
       List.map
         (fun style -> (bits, style))
         (Ccplace.Style.[ Rowwise; Chessboard; Spiral ]
          @ Ccplace.Style.block_family ~bits))
    [ 6; 7; 8; 9; 10 ]
  @ List.map
    (fun style -> (12, style))
    Ccplace.Style.[ Rowwise; Chessboard; Spiral; block_default ~bits:12 ]

let test_topology_golden () =
  Alcotest.(check int) "39 designs" 39 (List.length golden_designs);
  List.iter
    (fun (bits, style) ->
       let l =
         layout_of ~p_of_cap:(Ccdac.Flow.default_parallel ~bits style) style
           bits
       in
       Alcotest.(check (pair int int)) "every net one piece, none raises"
         (0, 0)
         (check_topology
            (Printf.sprintf "%s %d-bit" (Ccplace.Style.name style) bits)
            l))
    golden_designs

(* Every trunk lists its first attach point twice: repeated event
   heights, and a second strap the spanning tree drops. *)
let repeat_straps l =
  { l with
    L.nets =
      Array.map
        (fun (n : L.capnet) ->
           { n with
             L.cn_trunks =
               List.map
                 (fun (tk : L.trunk) ->
                    match tk.L.tk_attaches with
                    | [||] -> tk
                    | att ->
                      { tk with L.tk_attaches = Array.append [| att.(0) |] att })
                 n.L.cn_trunks })
        l.L.nets }

let test_topology_mutated () =
  Alcotest.(check (pair int int)) "dropped group: one piece, no raise" (0, 0)
    (check_topology "dropped group" (drop_group spiral6));
  Alcotest.(check (pair int int)) "repeated straps: one piece, no raise"
    (0, 0)
    (check_topology "repeated straps" (repeat_straps spiral6));
  Alcotest.(check (pair int int)) "dropped strap: C_3 in pieces" (1, 0)
    (check_topology "dropped strap" (drop_only_strap spiral6));
  Alcotest.(check (pair int int)) "unrouted net: C_2 raises" (0, 1)
    (check_topology "unrouted net" (unrouted_layout 2 spiral6))

(* --- the integer grid --- *)

let quarter_unit = 0.25 /. float_of_int Lvs.Shape.units_per_um

let test_off_grid_via () =
  (* one via a quarter unit off the grid: reported by shape, not snapped
     and not extracted *)
  let l = spiral6 in
  let shapes = (Lvs.Check.run l).Lvs.Check.stats.Lvs.Check.shapes in
  let i = 3 in
  let v = List.nth l.L.vias i in
  let vias =
    List.mapi
      (fun j (w : L.via) ->
         if j = i then { w with L.v_x = w.L.v_x +. quarter_unit } else w)
      l.L.vias
  in
  let r = Lvs.Check.run { l with L.vias } in
  let id = shapes - List.length l.L.vias + i in
  Alcotest.(check (list (triple string string string)))
    "one off-grid diagnostic naming the via"
    [ ( "lvs/off-grid",
        Printf.sprintf "C_%d" v.L.v_cap,
        Printf.sprintf
          "shape %d (via on M1+M3) at x [%.6f, %.6f] y [%.6f, %.6f] um is off \
           the 0.5 nm grid"
          id (v.L.v_x +. quarter_unit) (v.L.v_x +. quarter_unit) v.L.v_y
          v.L.v_y ) ]
    (triples r.Lvs.Check.diagnostics);
  Alcotest.(check bool) "not extracted" true
    (r.Lvs.Check.stats = { Lvs.Check.shapes = 0; contacts = 0; components = 0 })

let test_off_grid_tech () =
  (* a 64.3 nm pitch puts track centres on tenths of a nanometre: LVS
     rejects the routed layout, and the flow rejects the tech under
     tech/grid before it places *)
  let tech = { Tech.Process.finfet_12nm with Tech.Process.wire_pitch = 0.0643 } in
  let routed = Ccroute.Layout.route tech (Ccplace.Spiral.place ~bits:6) in
  Alcotest.(check (list string)) "rejected off the grid" [ "lvs/off-grid" ]
    (fired (Lvs.Check.check routed));
  match Ccdac.Flow.run ~tech ~bits:6 Ccplace.Style.Spiral with
  | _ -> Alcotest.fail "expected Verify.Engine.Rejected"
  | exception Verify.Engine.Rejected { diagnostics; _ } ->
    Alcotest.(check (list string)) "rejected by the tech rule" [ "tech/grid" ]
      (fired diagnostics)

let test_noise_snaps () =
  (* 1e-12 um of noise on every wire and via coordinate snaps back onto
     the grid: still clean, same shapes, contacts and components *)
  List.iter
    (fun (what, l) ->
       let noise k = if k land 1 = 0 then 1e-12 else -1e-12 in
       let wire i (w : L.wire) =
         { w with
           L.w_ax = w.L.w_ax +. noise i; w_ay = w.L.w_ay -. noise i;
           w_bx = w.L.w_bx -. noise (i + 1); w_by = w.L.w_by +. noise i }
       in
       let noisy =
         { (mutate_top_wires (List.mapi wire) (mutate_wires (List.mapi wire) l))
           with
           L.vias =
             List.mapi
               (fun i (v : L.via) ->
                  { v with L.v_x = v.L.v_x +. noise i; v_y = v.L.v_y -. noise i })
               l.L.vias }
       in
       let clean = Lvs.Check.run l and r = Lvs.Check.run noisy in
       Alcotest.(check (list string)) (what ^ " clean") [] (fired r.Lvs.Check.diagnostics);
       Alcotest.(check bool) (what ^ " stats unchanged") true
         (r.Lvs.Check.stats = clean.Lvs.Check.stats))
    [ ("spiral 6-bit", spiral6);
      ("chessboard 8-bit", layout_of Ccplace.Style.Chessboard 8) ]

(* --- cell plates on their lattice, against plates as sweep points --- *)

(* Shape.of_layout and Extracted.extract as they stood before the cell
   plates left the sweep, the reference for the lattice path: every pad
   is a point box on M1 and every top pad one on M2, ahead of the wires
   and vias in shape-id order, and all of a layer's contacts are the
   sweep's. *)
type reference = {
  r_kind : Lvs.Shape.kind array;
  r_label : int array;
  r_pads : int array;
  r_drivers : int array;
  r_layers : Lvs.Shape.layer array;  (* M1, M2, M3 *)
}

let r_off_grid = min_int

let reference_snap v =
  let units = float_of_int Lvs.Shape.units_per_um in
  let u = v *. units in
  let r = Float.round u in
  if
    Float.abs (u -. r) <= Lvs.Shape.tolerance_um *. units
    && Float.abs r <= float_of_int (1 lsl 40)
  then Float.to_int r
  else r_off_grid

let reference_flatten (l : L.t) =
  let module S = Lvs.Shape in
  let p = l.L.placement in
  let rows = p.Ccgrid.Placement.rows and cols = p.Ccgrid.Placement.cols in
  let layer_index = function
    | Tech.Layer.M1 -> 0
    | Tech.Layer.M2 -> 1
    | Tech.Layer.M3 -> 2
  in
  let layers_name l1 l2 =
    let name = function 0 -> "M1" | 1 -> "M2" | _ -> "M3" in
    if l2 < 0 then name l1 else name l1 ^ "+" ^ name l2
  in
  let boxes = Array.init 3 (fun _ -> ref []) in
  let kind = ref [] and label = ref [] in
  let pads = Array.make (rows * cols) (-1) in
  let off = ref [] and n_off = ref 0 in
  let unknown = ref [] and n_unknown = ref 0 in
  let n_nets = Array.length l.L.nets in
  let next = ref 0 in
  let emit k lab l1 l2 ax ay bx by sax say sbx sby =
    let id = !next in
    incr next;
    kind := k :: !kind;
    label := lab :: !label;
    if
      (lab = S.top && k = S.Via)
      || (lab <> S.top && (lab < 0 || lab >= n_nets))
    then begin
      incr n_unknown;
      if !n_unknown <= 8 then
        unknown :=
          Diag.makef ~loc:(S.label_name lab) Verify.Lvs_rules.r_unknown_net
            "shape %d (%s on %s) names C_%d, but the layout's nets are \
             C_0..C_%d"
            id (S.kind_name k) (layers_name l1 l2) lab (n_nets - 1)
          :: !unknown
    end;
    if sax = r_off_grid || say = r_off_grid || sbx = r_off_grid
       || sby = r_off_grid
    then begin
      incr n_off;
      if !n_off <= 8 then
        off :=
          Diag.makef ~loc:(S.label_name lab) Verify.Lvs_rules.r_off_grid
            "shape %d (%s on %s) at x [%.6f, %.6f] y [%.6f, %.6f] um is off \
             the %g nm grid"
            id (S.kind_name k) (layers_name l1 l2) (Float.min ax bx)
            (Float.max ax bx) (Float.min ay by) (Float.max ay by) S.unit_nm
          :: !off
    end
    else begin
      let box =
        (id, Int.min sax sbx, Int.min say sby, Int.max sax sbx, Int.max say sby)
      in
      boxes.(l1) := box :: !(boxes.(l1));
      if l2 >= 0 then boxes.(l2) := box :: !(boxes.(l2))
    end;
    id
  in
  let sx = Array.map reference_snap l.L.col_x in
  let sy = Array.map reference_snap l.L.row_y in
  for row = 0 to rows - 1 do
    let y = l.L.row_y.(row) in
    for col = 0 to cols - 1 do
      let x = l.L.col_x.(col) in
      let k = p.Ccgrid.Placement.assign.(row).(col) in
      if k <> Ccgrid.Placement.dummy then
        pads.((row * cols) + col) <-
          emit S.Pad k 0 (-1) x y x y sx.(col) sy.(row) sx.(col) sy.(row);
      ignore
        (emit S.Top_pad S.top 1 (-1) x y x y sx.(col) sy.(row) sx.(col)
           sy.(row))
    done
  done;
  let wire (w : L.wire) =
    let lab = if w.L.w_cap < 0 then S.top else w.L.w_cap in
    let kind =
      match w.L.w_kind with
      | L.Branch -> S.Branch
      | L.Stub -> S.Stub
      | L.Trunk -> S.Trunk
      | L.Bridge -> S.Bridge
      | L.Top -> S.Top_wire
    in
    ignore
      (emit kind lab (layer_index w.L.w_layer) (-1) w.L.w_ax w.L.w_ay w.L.w_bx
         w.L.w_by (reference_snap w.L.w_ax) (reference_snap w.L.w_ay)
         (reference_snap w.L.w_bx) (reference_snap w.L.w_by))
  in
  List.iter wire (L.Wires.to_list l.L.wires);
  List.iter wire (L.Wires.to_list l.L.top_wires);
  let drivers = ref [] in
  List.iter
    (fun (v : L.via) ->
       let s_x = reference_snap v.L.v_x and s_y = reference_snap v.L.v_y in
       let id =
         emit S.Via v.L.v_cap 0 2 v.L.v_x v.L.v_y v.L.v_x v.L.v_y s_x s_y s_x
           s_y
       in
       if s_y <> r_off_grid && s_y <= 0 then drivers := id :: !drivers)
    l.L.vias;
  if !n_off > 0 || !n_unknown > 0 then
    Error
      (Diag.sort
         ((if !n_off > 8 then
             [ Diag.makef Verify.Lvs_rules.r_off_grid
                 "%d more shapes off the %g nm grid" (!n_off - 8) S.unit_nm ]
           else [])
          @ (if !n_unknown > 8 then
               [ Diag.makef Verify.Lvs_rules.r_unknown_net
                   "%d more shapes name no net of the layout"
                   (!n_unknown - 8) ]
             else [])
          @ !off @ !unknown))
  else
    let layer boxes =
      let a = Array.of_list (List.rev !boxes) in
      let pick f = Array.map f a in
      { S.ids = pick (fun (id, _, _, _, _) -> id);
        boxes =
          { Geom.Sweepline.x0 = pick (fun (_, x0, _, _, _) -> x0);
            y0 = pick (fun (_, _, y0, _, _) -> y0);
            x1 = pick (fun (_, _, _, x1, _) -> x1);
            y1 = pick (fun (_, _, _, _, y1) -> y1) } }
    in
    Ok
      { r_kind = Array.of_list (List.rev !kind);
        r_label = Array.of_list (List.rev !label);
        r_pads = pads;
        r_drivers = Array.of_list (List.rev !drivers);
        r_layers = Array.map layer boxes }

(* one reference layer's contacts, all from the sweep, as sorted shape-id
   pairs *)
let reference_contacts r j =
  let l = r.r_layers.(j) in
  let ids = l.Lvs.Shape.ids in
  List.sort compare
    (List.map
       (fun (a, b) -> (min ids.(a) ids.(b), max ids.(a) ids.(b)))
       (contacts l.Lvs.Shape.boxes))

(* the reference's union-find over the three sweeps *)
let reference_extract r =
  let n = Array.length r.r_kind in
  let parent = Array.init n Fun.id in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      parent.(i) <- parent.(p);
      find parent.(i)
    end
  in
  let contacts = ref 0 and sc = Geom.Sweepline.scratch () in
  Array.iter
    (fun (l : Lvs.Shape.layer) ->
       let ids = l.Lvs.Shape.ids in
       Geom.Sweepline.contacts sc l.Lvs.Shape.boxes
         (fun a b ->
            incr contacts;
            let ra = find ids.(a) and rb = find ids.(b) in
            if ra <> rb then parent.(Int.max ra rb) <- Int.min ra rb))
    r.r_layers;
  (* the lowest shape id of each component is its root *)
  let comp = Array.make n (-1) and next = ref 0 in
  let comp_of =
    Array.init n (fun i ->
        let root = find i in
        if comp.(root) < 0 then begin
          comp.(root) <- !next;
          incr next
        end;
        comp.(root))
  in
  { Lvs.Extracted.comp_of; n_components = !next; n_contacts = !contacts;
    sort_keys = Geom.Sweepline.sort_keys sc }

(* [l] through both paths: the same diagnostics when flattening fails;
   otherwise the same kinds, labels, pads and drivers, the same contact
   pairs on every layer, the same components and stats.  True when both
   extracted it. *)
let check_lattice what l =
  match (Lvs.Shape.of_layout l, reference_flatten l) with
  | Error d, Error d' ->
    Alcotest.(check (list (triple string string string)))
      (what ^ ": diagnostics") (triples d') (triples d);
    false
  | Ok shapes, Ok r ->
    let ints = Alcotest.(array int) in
    Alcotest.(check bool) (what ^ ": kinds") true
      (shapes.Lvs.Shape.kind = r.r_kind);
    Alcotest.check ints (what ^ ": labels") r.r_label shapes.Lvs.Shape.label;
    Alcotest.check ints (what ^ ": pads") r.r_pads shapes.Lvs.Shape.pads;
    Alcotest.check ints (what ^ ": drivers") r.r_drivers
      shapes.Lvs.Shape.drivers;
    List.iteri
      (fun j layer ->
         Alcotest.(check (list (pair int int)))
           (Format.asprintf "%s: %a contacts" what Tech.Layer.pp_name layer)
           (reference_contacts r j) (layer_contacts shapes layer))
      Tech.Layer.[ M1; M2; M3 ];
    let ex = Lvs.Extracted.extract shapes and ex' = reference_extract r in
    Alcotest.check ints (what ^ ": components") ex'.Lvs.Extracted.comp_of
      ex.Lvs.Extracted.comp_of;
    let stats (e : Lvs.Extracted.t) =
      (Array.length r.r_kind, e.Lvs.Extracted.n_contacts,
       e.Lvs.Extracted.n_components)
    in
    let s = (run_lvs what l).Lvs.Check.stats in
    Alcotest.(check (triple int int int)) (what ^ ": stats") (stats ex')
      (s.Lvs.Check.shapes, s.Lvs.Check.contacts, s.Lvs.Check.components);
    true
  | Ok _, Error d ->
    Alcotest.failf "%s: only the reference rejects it:\n%s" what
      (Verify.Report.text d)
  | Error d, Ok _ ->
    Alcotest.failf "%s: only the lattice path rejects it:\n%s" what
      (Verify.Report.text d)

let test_lattice_golden () =
  let dummies = ref 0 in
  List.iter
    (fun (bits, style) ->
       let l =
         layout_of ~p_of_cap:(Ccdac.Flow.default_parallel ~bits style) style
           bits
       in
       Array.iter
         (Array.iter (fun k -> if k = Ccgrid.Placement.dummy then incr dummies))
         l.L.placement.Ccgrid.Placement.assign;
       Alcotest.(check bool) "extracted" true
         (check_lattice
            (Printf.sprintf "%s %d-bit" (Ccplace.Style.name style) bits)
            l))
    golden_designs;
  Alcotest.(check bool) "dummy cells among them" true (!dummies > 0)

(* Hand-corrupted lattices, plate contacts and plates with diagnostics. *)
let corrupted_lattices l =
  let cols = Array.length l.L.col_x and rows = Array.length l.L.row_y in
  (* [l] with copies of its column x's and row y's edited *)
  let lattice fx fy =
    let col_x = Array.copy l.L.col_x and row_y = Array.copy l.L.row_y in
    fx col_x;
    fy row_y;
    { l with L.col_x; row_y }
  in
  let keep (_ : float array) = () in
  let x = l.L.col_x and y = l.L.row_y in
  let assign = Array.map Array.copy l.L.placement.Ccgrid.Placement.assign in
  assign.(0).(0) <- Array.length l.L.nets;
  [ ("duplicate column", lattice (fun x -> x.(2) <- x.(1)) keep);
    ("duplicate row", lattice keep (fun y -> y.(3) <- y.(2)));
    ( "duplicate column and rows",
      lattice
        (fun x -> x.(4) <- x.(5))
        (fun y ->
           y.(1) <- y.(0);
           y.(2) <- y.(0)) );
    ( "swapped rows",
      lattice keep (fun y ->
          let t = y.(1) in
          y.(1) <- y.(rows - 2);
          y.(rows - 2) <- t) );
    ( "columns shifted 0.5 nm",
      lattice (fun x -> Array.iteri (fun i v -> x.(i) <- v +. 0.0005) x) keep );
    ( "M1 wire spanning a row of pads",
      mutate_wires
        (fun ws ->
           { L.w_cap = 0; w_kind = L.Branch; w_layer = Tech.Layer.M1;
             w_ax = x.(0); w_ay = y.(2); w_bx = x.(cols - 1); w_by = y.(2);
             w_p = 1 }
           :: ws)
        l );
    ( "via on a pad",
      { l with
        L.vias = { L.v_cap = 0; v_x = x.(2); v_y = y.(1); v_p = 1 } :: l.L.vias
      } );
    ( "extra top wire",
      mutate_top_wires
        (fun ws ->
           { L.w_cap = -2; w_kind = L.Top; w_layer = Tech.Layer.M2;
             w_ax = x.(1); w_ay = y.(0); w_bx = x.(1); w_by = y.(rows - 1);
             w_p = 1 }
           :: ws)
        l );
    ( "column a quarter unit off the grid",
      lattice (fun x -> x.(3) <- x.(3) +. quarter_unit) keep );
    ( "pad naming no net",
      { l with
        L.placement = { l.L.placement with Ccgrid.Placement.assign } } ) ]

let test_lattice_corrupted () =
  List.iter
    (fun (design, l) ->
       Alcotest.(check (list (pair string bool)))
         (design ^ ": extracted, all but the last two")
         [ ("duplicate column", true); ("duplicate row", true);
           ("duplicate column and rows", true); ("swapped rows", true);
           ("columns shifted 0.5 nm", true);
           ("M1 wire spanning a row of pads", true); ("via on a pad", true);
           ("extra top wire", true);
           ("column a quarter unit off the grid", false);
           ("pad naming no net", false) ]
         (List.map
            (fun (what, l') -> (what, check_lattice (design ^ ", " ^ what) l'))
            (corrupted_lattices l)))
    [ ("spiral 6-bit", spiral6);
      ("chessboard 7-bit", layout_of Ccplace.Style.Chessboard 7) ]

(* Random lattices (columns and rows drawn from a few values, so unsorted
   and repeating), random plates (some cells empty) and random wires and
   points on or near the lattice: every contact the layer iterator
   reports, as a multiset, is a brute-force contact — two boxes touching,
   a plate inside a box, or two plates on one point — and every one is
   reported. *)
let gen_lattice_case =
  let open QCheck.Gen in
  let coord = int_range 0 12 in
  let* cols = int_range 1 6 and* rows = int_range 1 6 in
  let* col_x = array_size (return cols) coord
  and* row_y = array_size (return rows) coord
  and* plates =
    array_size (return (rows * cols)) (frequencyl [ (3, true); (1, false) ])
  and* segs =
    list_size (int_range 0 12)
      (let* o = int_range 0 2
       and* x = int_range (-1) 13
       and* y = int_range (-1) 13
       and* len = int_range 1 8 in
       return
         (match o with
          | 0 -> (x, y, x + len, y)
          | 1 -> (x, y, x, y + len)
          | _ -> (x, y, x, y)))
  in
  return (cols, col_x, row_y, plates, segs)

let lattice_case_arb =
  let print (cols, col_x, row_y, plates, segs) =
    let ints a =
      String.concat " " (Array.to_list (Array.map string_of_int a))
    in
    Printf.sprintf "cols %d, x [%s], y [%s], plates [%s], boxes %s" cols
      (ints col_x) (ints row_y)
      (String.concat ""
         (Array.to_list
            (Array.map (fun b -> if b then "1" else "0") plates)))
      (String.concat "; "
         (List.map
            (fun (ax, ay, bx, by) ->
               Printf.sprintf "(%d,%d)-(%d,%d)" ax ay bx by)
            segs))
  in
  QCheck.make ~print gen_lattice_case

let lattice_matches_brute_force (cols, col_x, row_y, has_plate, segs) =
  (* shape ids: the plates per cell, then the boxes *)
  let next = ref 0 in
  let plates =
    Array.map
      (fun b ->
         if b then begin
           incr next;
           !next - 1
         end
         else -1)
      has_plate
  in
  let n_plates = !next in
  let b = boxes_of segs in
  let n_boxes = Array.length b.Geom.Sweepline.x0 in
  let ids = Array.init n_boxes (fun i -> n_plates + i) in
  let empty = { Lvs.Shape.ids = [||]; boxes = boxes_of [] } in
  let shapes =
    { Lvs.Shape.cols;
      kind = Array.make (n_plates + n_boxes) Lvs.Shape.Pad;
      label = Array.make (n_plates + n_boxes) 0;
      pads = plates;
      top_pads = Array.make (Array.length plates) (-1);
      col_x; row_y;
      drivers = [||];
      layers = [| { Lvs.Shape.ids; boxes = b }; empty; empty |] }
  in
  let found = ref [] in
  Lvs.Extracted.contacts shapes Tech.Layer.M1 (fun p q ->
      found := (min p q, max p q) :: !found);
  (* brute force: each shape as a closed box *)
  let box id =
    if id < n_plates then begin
      let cell = ref 0 in
      Array.iteri (fun c p -> if p = id then cell := c) plates;
      let x = col_x.(!cell mod cols) and y = row_y.(!cell / cols) in
      (x, y, x, y)
    end
    else
      let i = id - n_plates in
      (b.x0.(i), b.y0.(i), b.x1.(i), b.y1.(i))
  in
  let expected = ref [] in
  let n = n_plates + n_boxes in
  for p = 0 to n - 1 do
    let px0, py0, px1, py1 = box p in
    for q = p + 1 to n - 1 do
      let qx0, qy0, qx1, qy1 = box q in
      if px0 <= qx1 && qx0 <= px1 && py0 <= qy1 && qy0 <= py1 then
        expected := (p, q) :: !expected
    done
  done;
  List.sort compare !found = List.sort compare !expected

let prop_lattice_matches_brute_force =
  QCheck.Test.make ~name:"lattice contacts = brute force" ~count:500
    lattice_case_arb lattice_matches_brute_force

(* --- satellite regressions in ccroute --- *)

let test_mst_disconnected_message () =
  Alcotest.check_raises "components and orphan named"
    (Invalid_argument
       "Mst.prim: graph is disconnected (2 components; node 2 unreachable \
        from node 0)")
    (fun () ->
       ignore
         (Ccroute.Mst.prim ~nodes:4 ~edges:[| (0, 1, 1.); (2, 3, 1.) |]));
  Alcotest.check_raises "isolated node"
    (Invalid_argument
       "Mst.prim: graph is disconnected (2 components; node 2 unreachable \
        from node 0)")
    (fun () ->
       ignore (Ccroute.Mst.prim ~nodes:3 ~edges:[| (0, 1, 1.) |]))

let test_trunk_channels_consistent () =
  (* the invariant that makes Layout.build's per-channel track lookup
     total: every channel a capacitor's plan routes name carries exactly
     one trunk of that capacitor *)
  List.iter
    (fun style ->
       let l = layout_of style 8 in
       Array.iter
         (fun (n : L.capnet) ->
            let plan_channels =
              List.sort_uniq Int.compare
                (List.map
                   (fun g -> l.L.plan.Ccroute.Plan.channel.(g))
                   (Array.to_list n.L.cn_groups))
            in
            let trunk_channels =
              List.sort Int.compare
                (List.map (fun (tk : L.trunk) -> tk.L.tk_channel) n.L.cn_trunks)
            in
            Alcotest.(check (list int))
              (Printf.sprintf "%s C_%d channels" (Ccplace.Style.name style)
                 n.L.cn_cap)
              plan_channels trunk_channels)
         l.L.nets)
    (sweep_styles 8)

(* --- lvs/* registry entries --- *)

let test_lvs_rules_registered () =
  let lvs_rules =
    List.filter
      (fun (r : Diag.rule) -> Diag.family r.Diag.id = "lvs")
      Verify.Registry.all.Diag.rules
  in
  Alcotest.(check (list string))
    "catalogued"
    [ "lvs/dangling"; "lvs/diagonal"; "lvs/floating-cell";
      "lvs/netbuild-mismatch"; "lvs/off-grid"; "lvs/open"; "lvs/short";
      "lvs/top-open"; "lvs/unknown-net" ]
    (List.map (fun (r : Diag.rule) -> r.Diag.id) lvs_rules);
  Alcotest.(check bool) "dangling is a warning" true
    (Verify.Lvs_rules.r_dangling.Diag.severity = Diag.Warning)

let () =
  let open Alcotest in
  run "lvs"
    [ ( "sweepline",
        [ test_case "basic contacts" `Quick test_sweepline_basic;
          test_case "points" `Quick test_sweepline_points;
          test_case "verticals and vias" `Quick
            test_sweepline_verticals_and_vias;
          test_case "no verticals" `Quick test_sweepline_no_verticals;
          test_case "rejects rectangles" `Quick test_sweepline_rejects_rect;
          QCheck_alcotest.to_alcotest prop_sweepline_matches_all_pairs;
          QCheck_alcotest.to_alcotest prop_sweepline_skewed_mixes ] );
      ( "clean",
        [ test_case "style x bits sweep" `Slow test_clean_sweep;
          test_case "parallel wires" `Quick test_clean_parallel_wires;
          test_case "odd-N chessboard" `Quick test_odd_chessboard;
          test_case "stub planarity repair" `Quick test_stub_planarity_repair;
          test_case "stats" `Quick test_stats_sane;
          test_case "signoff designs pinned" `Slow test_signoff_pins;
          test_case "sweep sort keys pinned" `Slow test_sort_keys_pinned ] );
      ( "mutations",
        [ test_case "drop attach via" `Quick test_mut_drop_attach_via;
          test_case "delete bridge" `Quick test_mut_drop_bridge;
          test_case "nudge trunk" `Quick test_mut_nudge_trunk;
          test_case "merge tracks" `Quick test_mut_merge_tracks;
          test_case "dangling via" `Quick test_mut_dangling_via;
          test_case "netbuild mismatch" `Quick test_mut_netbuild_mismatch;
          test_case "dropped strap" `Quick test_mut_dropped_strap ] );
      ( "triage",
        [ test_case "unrouted net is lvs/open" `Quick test_unrouted_is_open;
          test_case "Netbuild rejects with diagnostics" `Quick
            test_netbuild_unrouted_rejected;
          test_case "via naming no net" `Quick test_unknown_net_via;
          test_case "wire naming no net" `Quick test_unknown_net_wire;
          test_case "via on the top plate" `Quick test_top_plate_via;
          test_case "wire along both axes" `Quick test_diagonal_wire;
          test_case "lattice short or long" `Quick test_lattice_length;
          test_case "zero parallel count" `Quick test_zero_parallel_lvs ] );
      ( "netbuild topology",
        [ test_case "golden designs" `Slow test_topology_golden;
          test_case "mutated layouts" `Quick test_topology_mutated ] );
      ( "grid",
        [ test_case "off-grid via" `Quick test_off_grid_via;
          test_case "sub-nanometre tech rejected" `Quick test_off_grid_tech;
          test_case "1e-12 um noise snaps" `Quick test_noise_snaps ] );
      ( "plate lattice",
        [ test_case "golden designs = plates as sweep points" `Slow
            test_lattice_golden;
          test_case "corrupted layouts = plates as sweep points" `Quick
            test_lattice_corrupted;
          QCheck_alcotest.to_alcotest prop_lattice_matches_brute_force ] );
      ( "ccroute satellites",
        [ test_case "Mst.prim disconnected message" `Quick
            test_mst_disconnected_message;
          test_case "trunk channels consistent" `Quick
            test_trunk_channels_consistent ] );
      ( "registry",
        [ test_case "lvs rules catalogued" `Quick test_lvs_rules_registered ] )
    ]
