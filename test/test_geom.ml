(* Unit and property tests for the geom library. *)

let check_float = Alcotest.(check (float 1e-9))

let point ~x ~y = Geom.Point.make ~x ~y

(* --- Axis --- *)

let test_axis_orthogonal () =
  Alcotest.(check bool) "h/v" true
    (Geom.Axis.equal
       (Geom.Axis.orthogonal Geom.Axis.Horizontal)
       Geom.Axis.Vertical);
  Alcotest.(check bool) "v/h" true
    (Geom.Axis.equal
       (Geom.Axis.orthogonal Geom.Axis.Vertical)
       Geom.Axis.Horizontal)

let test_axis_of_delta () =
  Alcotest.(check bool) "dx" true
    (Geom.Axis.equal (Geom.Axis.of_delta ~dx:1. ~dy:0.) Geom.Axis.Horizontal);
  Alcotest.(check bool) "dy" true
    (Geom.Axis.equal (Geom.Axis.of_delta ~dx:0. ~dy:(-2.)) Geom.Axis.Vertical)

let test_axis_of_delta_diagonal () =
  Alcotest.check_raises "diagonal" (Invalid_argument
    "Axis.of_delta: diagonal displacement")
    (fun () -> ignore (Geom.Axis.of_delta ~dx:1. ~dy:1.))

let test_axis_of_delta_null () =
  Alcotest.check_raises "null" (Invalid_argument
    "Axis.of_delta: null displacement")
    (fun () -> ignore (Geom.Axis.of_delta ~dx:0. ~dy:0.))

(* --- Point --- *)

let test_point_arith () =
  let a = point ~x:1. ~y:2. and b = point ~x:3. ~y:(-1.) in
  let s = Geom.Point.add a b in
  check_float "add x" 4. s.Geom.Point.x;
  check_float "add y" 1. s.Geom.Point.y;
  let d = Geom.Point.sub a b in
  check_float "sub x" (-2.) d.Geom.Point.x;
  let n = Geom.Point.neg a in
  check_float "neg" (-1.) n.Geom.Point.x;
  let m = Geom.Point.midpoint a b in
  check_float "mid x" 2. m.Geom.Point.x;
  check_float "mid y" 0.5 m.Geom.Point.y

let test_point_distance () =
  let a = point ~x:0. ~y:0. and b = point ~x:3. ~y:4. in
  check_float "euclid" 5. (Geom.Point.distance a b);
  check_float "manhattan" 7. (Geom.Point.manhattan a b)

let test_point_centroid () =
  let c =
    Geom.Point.centroid
      [ point ~x:0. ~y:0.; point ~x:2. ~y:0.; point ~x:1. ~y:3. ]
  in
  check_float "cx" 1. c.Geom.Point.x;
  check_float "cy" 1. c.Geom.Point.y

let test_point_centroid_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Point.centroid: empty list")
    (fun () -> ignore (Geom.Point.centroid []))

let test_point_equal_eps () =
  Alcotest.(check bool) "within eps" true
    (Geom.Point.equal ~eps:1e-3 (point ~x:0. ~y:0.) (point ~x:1e-4 ~y:0.));
  Alcotest.(check bool) "outside eps" false
    (Geom.Point.equal ~eps:1e-6 (point ~x:0. ~y:0.) (point ~x:1e-4 ~y:0.))

(* --- Interval --- *)

let test_interval_make_order () =
  let i = Geom.Interval.make 5. 2. in
  check_float "lo" 2. i.Geom.Interval.lo;
  check_float "hi" 5. i.Geom.Interval.hi;
  check_float "len" 3. (Geom.Interval.length i)

let test_interval_intersect () =
  let a = Geom.Interval.make 0. 4. and b = Geom.Interval.make 2. 6. in
  (match Geom.Interval.intersect a b with
   | Some i ->
     check_float "lo" 2. i.Geom.Interval.lo;
     check_float "hi" 4. i.Geom.Interval.hi
   | None -> Alcotest.fail "expected overlap");
  check_float "overlap" 2. (Geom.Interval.overlap_length a b)

let test_interval_disjoint () =
  let a = Geom.Interval.make 0. 1. and b = Geom.Interval.make 2. 3. in
  Alcotest.(check bool) "none" true (Geom.Interval.intersect a b = None);
  check_float "overlap 0" 0. (Geom.Interval.overlap_length a b)

let test_interval_touching () =
  let a = Geom.Interval.make 0. 1. and b = Geom.Interval.make 1. 2. in
  (match Geom.Interval.intersect a b with
   | Some i -> check_float "len" 0. (Geom.Interval.length i)
   | None -> Alcotest.fail "touching intervals intersect")

let test_interval_hull_contains () =
  let a = Geom.Interval.make 0. 1. and b = Geom.Interval.make 3. 4. in
  let h = Geom.Interval.hull a b in
  Alcotest.(check bool) "contains 2" true (Geom.Interval.contains h 2.);
  check_float "len" 4. (Geom.Interval.length h)

(* --- properties --- *)

let float_gen = QCheck.Gen.float_range (-100.) 100.

let point_arb =
  QCheck.make
    ~print:(fun (x, y) -> Printf.sprintf "(%f, %f)" x y)
    QCheck.Gen.(pair float_gen float_gen)

let prop_distance_symmetric =
  QCheck.Test.make ~name:"distance symmetric" ~count:200
    (QCheck.pair point_arb point_arb)
    (fun ((ax, ay), (bx, by)) ->
       let a = point ~x:ax ~y:ay and b = point ~x:bx ~y:by in
       Float.abs (Geom.Point.distance a b -. Geom.Point.distance b a) < 1e-9)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"triangle inequality" ~count:200
    (QCheck.triple point_arb point_arb point_arb)
    (fun ((ax, ay), (bx, by), (cx, cy)) ->
       let a = point ~x:ax ~y:ay
       and b = point ~x:bx ~y:by
       and c = point ~x:cx ~y:cy in
       Geom.Point.distance a c
       <= Geom.Point.distance a b +. Geom.Point.distance b c +. 1e-9)

let prop_manhattan_dominates =
  QCheck.Test.make ~name:"manhattan >= euclid" ~count:200
    (QCheck.pair point_arb point_arb)
    (fun ((ax, ay), (bx, by)) ->
       let a = point ~x:ax ~y:ay and b = point ~x:bx ~y:by in
       Geom.Point.manhattan a b >= Geom.Point.distance a b -. 1e-9)

let prop_neg_involution =
  QCheck.Test.make ~name:"neg involution" ~count:200 point_arb
    (fun (x, y) ->
       let p = point ~x ~y in
       Geom.Point.equal p (Geom.Point.neg (Geom.Point.neg p)))

let interval_arb = QCheck.pair QCheck.(float_range (-50.) 50.) QCheck.(float_range (-50.) 50.)

let prop_overlap_commutes =
  QCheck.Test.make ~name:"overlap commutes" ~count:200
    (QCheck.pair interval_arb interval_arb)
    (fun ((a1, a2), (b1, b2)) ->
       let a = Geom.Interval.make a1 a2 and b = Geom.Interval.make b1 b2 in
       Float.abs
         (Geom.Interval.overlap_length a b -. Geom.Interval.overlap_length b a)
       < 1e-9)

let prop_overlap_bounded =
  QCheck.Test.make ~name:"overlap <= min length" ~count:200
    (QCheck.pair interval_arb interval_arb)
    (fun ((a1, a2), (b1, b2)) ->
       let a = Geom.Interval.make a1 a2 and b = Geom.Interval.make b1 b2 in
       Geom.Interval.overlap_length a b
       <= Float.min (Geom.Interval.length a) (Geom.Interval.length b) +. 1e-9)

let prop_hull_contains_both =
  QCheck.Test.make ~name:"hull contains endpoints" ~count:200
    (QCheck.pair interval_arb interval_arb)
    (fun ((a1, a2), (b1, b2)) ->
       let a = Geom.Interval.make a1 a2 and b = Geom.Interval.make b1 b2 in
       let h = Geom.Interval.hull a b in
       Geom.Interval.contains h a1 && Geom.Interval.contains h a2
       && Geom.Interval.contains h b1 && Geom.Interval.contains h b2)

let () =
  Alcotest.run "geom"
    [ ( "axis",
        [ Alcotest.test_case "orthogonal" `Quick test_axis_orthogonal;
          Alcotest.test_case "of_delta" `Quick test_axis_of_delta;
          Alcotest.test_case "of_delta diagonal" `Quick test_axis_of_delta_diagonal;
          Alcotest.test_case "of_delta null" `Quick test_axis_of_delta_null ] );
      ( "point",
        [ Alcotest.test_case "arithmetic" `Quick test_point_arith;
          Alcotest.test_case "distance" `Quick test_point_distance;
          Alcotest.test_case "centroid" `Quick test_point_centroid;
          Alcotest.test_case "centroid empty" `Quick test_point_centroid_empty;
          Alcotest.test_case "equal eps" `Quick test_point_equal_eps ] );
      ( "interval",
        [ Alcotest.test_case "make orders" `Quick test_interval_make_order;
          Alcotest.test_case "intersect" `Quick test_interval_intersect;
          Alcotest.test_case "disjoint" `Quick test_interval_disjoint;
          Alcotest.test_case "touching" `Quick test_interval_touching;
          Alcotest.test_case "hull" `Quick test_interval_hull_contains ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_distance_symmetric;
            prop_triangle_inequality;
            prop_manhattan_dominates;
            prop_neg_involution;
            prop_overlap_commutes;
            prop_overlap_bounded;
            prop_hull_contains_both ] ) ]
