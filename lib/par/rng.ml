(* SplitMix64 (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
   Generators", OOPSLA 2014): an additive counter stream through a
   64-bit finalizer.  The finalizer is bijective and avalanching, so
   keying the stream start by (seed, index) yields substreams that are
   statistically independent for distinct indices — the property that
   makes per-trial Monte-Carlo draws order- and schedule-invariant. *)

let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Substream origin: the seed xor-folded with a mixed multiple of the
   golden gamma — adjacent indices land in unrelated stream positions. *)
let[@inline] origin ~seed ~index =
  Int64.logxor (Int64.of_int seed)
    (mix (Int64.mul gamma (Int64.of_int index)))

let[@inline] word ~origin k =
  mix (Int64.add origin (Int64.mul gamma (Int64.of_int (k + 1))))

let draw ~seed ~index k = word ~origin:(origin ~seed ~index) k

(* The seed words, kept positive on 64-bit so that [Random.State.make]
   serialises them unchanged. *)
let[@inline] seed_word ~origin k =
  Int64.logand (word ~origin k) 0x3FFFFFFFFFFFFFFFL

let state ~seed ~index =
  let origin = origin ~seed ~index in
  Random.State.make
    (Array.init 4 (fun k -> Int64.to_int (seed_word ~origin k)))

(* In-place substreams.  OCaml 5's [Random.State] is L64X128, the LXM
   generator of Steele & Vigna ("LXM: Better Splittable Pseudorandom
   Number Generators (and Almost as Fast)", OOPSLA 2021; caml_lxm_next
   in the runtime's lxm.c): a 64-bit LCG [s <- s*M + a] and a
   xoroshiro128 generator [x0, x1], whose sum goes through a mixer.
   [lxm] keeps those four words in [a; s; x0; x1] order in 32 bytes,
   native-endian (no one else reads them), and [key] is
   [Random.State.reinit]'s MD5 input for four seed words. *)
type t = { lxm : Bytes.t; key : Bytes.t }

let lcg = 0xd1342543de82ef95L
let mixer = 0xdaba0b6eb09322e3L

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next st =
  let a = Bytes.get_int64_ne st 0 and s = Bytes.get_int64_ne st 8 in
  let x0 = Bytes.get_int64_ne st 16 and x1 = Bytes.get_int64_ne st 24 in
  let z = Int64.add s x0 in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 32)) mixer in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 32)) mixer in
  Bytes.set_int64_ne st 8 (Int64.add (Int64.mul s lcg) a);
  let q1 = Int64.logxor x1 x0 in
  Bytes.set_int64_ne st 16
    (Int64.logxor (Int64.logxor (rotl x0 24) q1) (Int64.shift_left q1 16));
  Bytes.set_int64_ne st 24 (rotl q1 37);
  Int64.logxor z (Int64.shift_right_logical z 32)

(* [Random.State.reinit] on the four seed words: each serialised as a
   little-endian int64, then one MD5 with the suffix byte 1 and one with
   2; [Random.State.set]'s fix-ups keep [a] odd and the xoroshiro words
   non-zero. *)
let reseed t ~seed ~index =
  let origin = origin ~seed ~index in
  for k = 0 to 3 do
    Bytes.set_int64_le t.key (k * 8) (seed_word ~origin k)
  done;
  Bytes.set t.key 32 '\x01';
  let d1 = Digest.bytes t.key in
  Bytes.set t.key 32 '\x02';
  let d2 = Digest.bytes t.key in
  let x0 = String.get_int64_le d2 0 and x1 = String.get_int64_le d2 8 in
  Bytes.set_int64_ne t.lxm 0 (Int64.logor (String.get_int64_le d1 0) 1L);
  Bytes.set_int64_ne t.lxm 8 (String.get_int64_le d1 8);
  Bytes.set_int64_ne t.lxm 16 (if x0 <> 0L then x0 else 1L);
  Bytes.set_int64_ne t.lxm 24 (if x1 <> 0L then x1 else 2L)

let substream ~seed ~index =
  let t = { lxm = Bytes.create 32; key = Bytes.create 33 } in
  reseed t ~seed ~index;
  t

(* [Random.State.float st 1.]: the top 53 bits as a multiple of 2^-53,
   drawn again in the 2^-53 case where they are all zero.  The scale
   1. leaves every such float unchanged. *)
let rec redraw st =
  let n = Int64.shift_right_logical (next st) 11 in
  if n <> 0L then Int64.to_float n *. 0x1.p-53 else redraw st

let[@inline] float t =
  let n = Int64.shift_right_logical (next t.lxm) 11 in
  if n <> 0L then Int64.to_float n *. 0x1.p-53 else redraw t.lxm

let floats t u =
  for i = 0 to Array.length u - 1 do
    u.(i) <- float t
  done
