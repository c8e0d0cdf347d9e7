type node = int

(* Edge [e] joins [ends_a.(e)] and [ends_b.(e)] through [res.(e)] ohm;
   the arrays are filled up to [edge_count]. *)
type t = {
  mutable caps : float array;
  mutable count : int;
  mutable ends_a : int array;
  mutable ends_b : int array;
  mutable res : float array;
  mutable edge_count : int;
}

let create () =
  { caps = [||]; count = 0; ends_a = [||]; ends_b = [||]; res = [||];
    edge_count = 0 }

let resize_nodes t capacity =
  let caps = Array.make capacity 0. in
  Array.blit t.caps 0 caps 0 t.count;
  t.caps <- caps

let add_node t ?(cap = 0.) () =
  if cap < 0. then invalid_arg "Rctree.add_node: negative capacitance";
  let n = t.count in
  if n = Array.length t.caps then resize_nodes t (Int.max 16 (2 * n));
  t.caps.(n) <- cap;
  t.count <- n + 1;
  n

let check_node t n =
  if n < 0 || n >= t.count then invalid_arg "Rctree: node out of range"

let add_cap t n c =
  check_node t n;
  t.caps.(n) <- t.caps.(n) +. c

let resize_edges t capacity =
  let m = t.edge_count in
  let ends_a = Array.make capacity 0 and ends_b = Array.make capacity 0 in
  let res = Array.make capacity 0. in
  Array.blit t.ends_a 0 ends_a 0 m;
  Array.blit t.ends_b 0 ends_b 0 m;
  Array.blit t.res 0 res 0 m;
  t.ends_a <- ends_a;
  t.ends_b <- ends_b;
  t.res <- res

let add_edge t a b ~r =
  check_node t a;
  check_node t b;
  if a = b then invalid_arg "Rctree.add_edge: self loop";
  if r < 0. then invalid_arg "Rctree.add_edge: negative resistance";
  let e = t.edge_count in
  if e = Array.length t.res then resize_edges t (Int.max 16 (2 * e));
  t.ends_a.(e) <- a;
  t.ends_b.(e) <- b;
  t.res.(e) <- r;
  t.edge_count <- e + 1

let wire_edge t a b ~r ~c =
  if c < 0. then invalid_arg "Rctree.wire_edge: negative capacitance";
  add_edge t a b ~r;
  add_cap t a (c /. 2.);
  add_cap t b (c /. 2.)

let num_nodes t = t.count
let num_edges t = t.edge_count

let node_cap t n =
  check_node t n;
  t.caps.(n)

let node_caps t = Array.sub t.caps 0 t.count

let total_cap t =
  let acc = ref 0. in
  for i = 0 to t.count - 1 do
    acc := !acc +. t.caps.(i)
  done;
  !acc

let edge t e =
  if e < 0 || e >= t.edge_count then invalid_arg "Rctree.edge: out of range";
  (t.ends_a.(e), t.ends_b.(e), t.res.(e))

let node_of_int t i =
  check_node t i;
  i

let refill t ~nodes ~edges =
  if nodes < 0 || edges < 0 then invalid_arg "Rctree.refill: negative size";
  if nodes > Array.length t.caps then t.caps <- Array.make nodes 0.
  else Array.fill t.caps 0 nodes 0.;
  if edges > Array.length t.res then begin
    t.ends_a <- Array.make edges 0;
    t.ends_b <- Array.make edges 0;
    t.res <- Array.make edges 0.
  end;
  t.count <- nodes;
  t.edge_count <- edges

let caps t = t.caps
let ends_a t = t.ends_a
let ends_b t = t.ends_b
let res t = t.res

type orientation = {
  parent : int array;
  parent_edge : int array;
  parent_r : float array;
  order : int array;
}

(* The orientation's arrays and the CSR adjacency behind them, for trees
   of up to [Array.length bfs] nodes (a tree of n nodes has n - 1
   edges). *)
type room = {
  start : int array;
  adj : int array;
  parents : int array;
  edges : int array;
  rs : float array;
  bfs : int array;
}

type scratch = room ref

let room n =
  { start = Array.make (n + 1) 0;
    adj = Array.make (2 * Int.max (n - 1) 0) 0;
    parents = Array.make n 0;
    edges = Array.make n 0;
    rs = Array.make n 0.;
    bfs = Array.make n 0 }

let scratch n = ref (room (Int.max n 0))

(* A BFS from the root over a CSR adjacency of edge ids: edge [e]'s other
   end seen from [u] is [ends_a.(e) + ends_b.(e) - u], and the BFS queue
   is [order] itself.  Each node's edges are listed in reverse insertion
   order: the sibling order fixes the order of the floating-point sums
   over the tree, and the pinned delays were computed in this one.  Only
   the root's slots of [parent_edge] and [parent_r] are written before
   the search; every other node's are written when it is reached. *)
let orient ?scratch:reuse t ~root =
  let n = t.count and m = t.edge_count in
  if m <> n - 1 then
    invalid_arg "Rctree.orient: edge count <> nodes - 1 (not a tree)";
  check_node t root;
  let s = match reuse with Some s -> s | None -> scratch n in
  if Array.length !s.bfs < n then s := room n;
  let { start; adj; parents = parent; edges = parent_edge; rs = parent_r; bfs = order } =
    !s
  in
  let ends_a = t.ends_a and ends_b = t.ends_b in
  (* [start.(u)] counts u's edges, then (prefix sums) ends u's slice of
     [adj]; filling each slice back to front leaves it at the slice's
     start, and [start.(n)] closes the last slice *)
  Array.fill start 0 n 0;
  for e = 0 to m - 1 do
    start.(ends_a.(e)) <- start.(ends_a.(e)) + 1;
    start.(ends_b.(e)) <- start.(ends_b.(e)) + 1
  done;
  for u = 1 to n - 1 do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  start.(n) <- 2 * m;
  for e = 0 to m - 1 do
    let a = ends_a.(e) and b = ends_b.(e) in
    start.(a) <- start.(a) - 1;
    adj.(start.(a)) <- e;
    start.(b) <- start.(b) - 1;
    adj.(start.(b)) <- e
  done;
  Array.fill parent 0 n (-2);
  parent.(root) <- -1;
  parent_edge.(root) <- -1;
  parent_r.(root) <- 0.;
  order.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    for k = start.(u) to start.(u + 1) - 1 do
      let e = adj.(k) in
      let v = ends_a.(e) + ends_b.(e) - u in
      if parent.(v) = -2 then begin
        parent.(v) <- u;
        parent_edge.(v) <- e;
        parent_r.(v) <- t.res.(e);
        order.(!tail) <- v;
        incr tail
      end
    done
  done;
  if !tail <> n then invalid_arg "Rctree.orient: graph is disconnected";
  { parent; parent_edge; parent_r; order }
