type node = int

type t = {
  mutable caps : float array;
  mutable count : int;
  mutable edge_list : (int * int * float) list;  (* reversed *)
  mutable edge_count : int;
}

let create () =
  { caps = Array.make 16 0.; count = 0; edge_list = []; edge_count = 0 }

let grow t =
  if t.count = Array.length t.caps then begin
    let caps = Array.make (2 * t.count) 0. in
    Array.blit t.caps 0 caps 0 t.count;
    t.caps <- caps
  end

let add_node t ?(cap = 0.) () =
  if cap < 0. then invalid_arg "Rctree.add_node: negative capacitance";
  grow t;
  let n = t.count in
  t.caps.(n) <- cap;
  t.count <- n + 1;
  n

let check_node t n =
  if n < 0 || n >= t.count then invalid_arg "Rctree: node out of range"

let add_cap t n c =
  check_node t n;
  t.caps.(n) <- t.caps.(n) +. c

let add_edge t a b ~r =
  check_node t a;
  check_node t b;
  if a = b then invalid_arg "Rctree.add_edge: self loop";
  if r < 0. then invalid_arg "Rctree.add_edge: negative resistance";
  t.edge_list <- (a, b, r) :: t.edge_list;
  t.edge_count <- t.edge_count + 1

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

let total_cap t =
  let acc = ref 0. in
  for i = 0 to t.count - 1 do
    acc := !acc +. t.caps.(i)
  done;
  !acc

let edges t = List.rev t.edge_list

let node_of_int t i =
  check_node t i;
  i
