(* Memory/GC observability: Gc.quick_stat deltas around spans, with the
   same pay-nothing-when-inactive discipline as Span.with_.

   OCaml 5 allocation counters (minor_words, promoted_words, major_words,
   minor/major collection counts) are per-domain, so a span that fans work
   out through Par.Pool would otherwise only see its own domain's share.
   Each domain therefore owns a mutex-guarded "foreign ledger"; Context
   captures the submitter's ledger into workers, and every task executed
   on a domain that is not already contributing to that ledger adds its
   quick_stat delta on completion.  A span then reads ledger growth back
   — but only when it runs in the ledger's owner domain, so concurrent
   workers never absorb each other's allocation. *)

type delta = {
  allocated_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words_before : int;
  heap_words_after : int;
  top_heap_words : int;
}

(* --- enablement (Atomic: read by every domain, written by the CLI) --- *)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let with_enabled b f =
  let saved = Atomic.get enabled_flag in
  Atomic.set enabled_flag b;
  Fun.protect ~finally:(fun () -> Atomic.set enabled_flag saved) f

(* allocated = everything that went through the minor heap plus direct
   major allocations, counting promotions once.  In OCaml 5 quick_stat's
   word counters only refresh at GC events, so a direct major allocation
   (an array of more than 256 words) would be booked to whichever span
   saw the next collection.  [Gc.counters] reads this domain's major and
   promoted words live, and [Gc.minor_words] its live minor allocation
   pointer (the minor words of [Gc.counters] also wait for a
   collection), so each span is charged what it allocated.  Returns
   (allocated, promoted) words. *)
let counters () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted, promoted)

(* --- the foreign ledger --- *)

type ledger = {
  owner : int;  (* id of the domain whose spans may read this ledger *)
  lock : Mutex.t;
  mutable l_allocated_w : float;
  mutable l_promoted_w : float;
  mutable l_minors : int;
  mutable l_majors : int;
  mutable l_top_heap_w : int;
}

let make_ledger () =
  { owner = (Domain.self () :> int);
    lock = Mutex.create ();
    l_allocated_w = 0.;
    l_promoted_w = 0.;
    l_minors = 0;
    l_majors = 0;
    l_top_heap_w = 0 }

let ledger_key : ledger Domain.DLS.key = Domain.DLS.new_key make_ledger

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* --- sampling (Span.with_ start/finish protocol) --- *)

type sample = {
  s_ledger : ledger;
  s_own : bool;  (* sampling domain is the ledger owner *)
  s_allocated_w : float;
  s_promoted_w : float;
  s_minors : int;
  s_majors : int;
  s_compactions : int;
  s_heap_w : int;
  (* ledger counters at start (zero when not the owner) *)
  s_l_allocated_w : float;
  s_l_promoted_w : float;
  s_l_minors : int;
  s_l_majors : int;
}

let start () =
  if not (Atomic.get enabled_flag) then None
  else begin
    let st = Gc.quick_stat () in
    let allocated_w, promoted_w = counters () in
    let led = Domain.DLS.get ledger_key in
    let own = led.owner = (Domain.self () :> int) in
    let l_alloc, l_prom, l_min, l_maj =
      if own then
        locked led.lock (fun () ->
            (led.l_allocated_w, led.l_promoted_w, led.l_minors, led.l_majors))
      else (0., 0., 0, 0)
    in
    Some
      { s_ledger = led;
        s_own = own;
        s_allocated_w = allocated_w;
        s_promoted_w = promoted_w;
        s_minors = st.Gc.minor_collections;
        s_majors = st.Gc.major_collections;
        s_compactions = st.Gc.compactions;
        s_heap_w = st.Gc.heap_words;
        s_l_allocated_w = l_alloc;
        s_l_promoted_w = l_prom;
        s_l_minors = l_min;
        s_l_majors = l_maj }
  end

let finish s =
  let st = Gc.quick_stat () in
  let allocated_w, promoted_w = counters () in
  let f_alloc, f_prom, f_min, f_maj, f_top =
    if s.s_own then
      locked s.s_ledger.lock (fun () ->
          ( s.s_ledger.l_allocated_w -. s.s_l_allocated_w,
            s.s_ledger.l_promoted_w -. s.s_l_promoted_w,
            s.s_ledger.l_minors - s.s_l_minors,
            s.s_ledger.l_majors - s.s_l_majors,
            s.s_ledger.l_top_heap_w ))
    else (0., 0., 0, 0, 0)
  in
  { allocated_words = allocated_w -. s.s_allocated_w +. f_alloc;
    promoted_words = promoted_w -. s.s_promoted_w +. f_prom;
    minor_collections = st.Gc.minor_collections - s.s_minors + f_min;
    major_collections = st.Gc.major_collections - s.s_majors + f_maj;
    compactions = st.Gc.compactions - s.s_compactions;
    heap_words_before = s.s_heap_w;
    heap_words_after = st.Gc.heap_words;
    top_heap_words = Int.max st.Gc.top_heap_words f_top }

(* --- cross-domain propagation (used by Context) --- *)

type ctx = ledger

let capture_ctx () = Domain.DLS.get ledger_key

(* A task contributes its quick_stat delta to the captured ledger unless
   this domain is already feeding it — either it is the owner (whose
   spans measure directly) or an enclosing task already installed the
   same ledger here (its delta covers this one).  The physical-equality
   test handles both, and prevents double counting when Par.Pool's
   submitting domain drains its own queue chunks. *)
let with_ctx led f =
  if
    (not (Atomic.get enabled_flag))
    || Domain.DLS.get ledger_key == led
  then f ()
  else begin
    let saved = Domain.DLS.get ledger_key in
    Domain.DLS.set ledger_key led;
    let st0 = Gc.quick_stat () in
    (* [counters] reads the live counters at call time, so the start
       sample must be taken NOW — evaluated in the finally it would
       cancel against the end sample and erase the task's allocation *)
    let a0, p0 = counters () in
    Fun.protect
      ~finally:(fun () ->
        let st1 = Gc.quick_stat () in
        let a1, p1 = counters () in
        locked led.lock (fun () ->
            led.l_allocated_w <- led.l_allocated_w +. (a1 -. a0);
            led.l_promoted_w <- led.l_promoted_w +. (p1 -. p0);
            led.l_minors <-
              led.l_minors
              + (st1.Gc.minor_collections - st0.Gc.minor_collections);
            led.l_majors <-
              led.l_majors
              + (st1.Gc.major_collections - st0.Gc.major_collections);
            led.l_top_heap_w <-
              Int.max led.l_top_heap_w st1.Gc.top_heap_words);
        Domain.DLS.set ledger_key saved)
      f
  end

(* --- unit conversions and rendering --- *)

let bytes_per_word = Sys.word_size / 8

let words_to_mb w = w *. float_of_int bytes_per_word /. 1048576.

let allocated_mb d = words_to_mb d.allocated_words
let peak_heap_mb d = words_to_mb (float_of_int d.top_heap_words)
let heap_after_mb d = words_to_mb (float_of_int d.heap_words_after)

let to_json d =
  Json.Obj
    [ ("allocated_mb", Json.Num (allocated_mb d));
      ("promoted_mb", Json.Num (words_to_mb d.promoted_words));
      ("minor_collections", Json.Num (float_of_int d.minor_collections));
      ("major_collections", Json.Num (float_of_int d.major_collections));
      ("compactions", Json.Num (float_of_int d.compactions));
      ("heap_before_mb", Json.Num (words_to_mb (float_of_int d.heap_words_before)));
      ("heap_after_mb", Json.Num (heap_after_mb d));
      ("peak_heap_mb", Json.Num (peak_heap_mb d)) ]
