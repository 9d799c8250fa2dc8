(* In-memory span recorder for the traced run.

   A span is one call into a layer's public function, timed from the
   benchmark side by a wrapper. Spans nest (a link delivery encloses the
   ACK processing, which encloses the controller calls and the next-hop
   enqueue); a span's self time is its duration minus its children's.

   All state is module-level and preallocated, so [enter]/[leave] never
   allocate and the wrapper closures capture nothing but the wrapped
   value — a checkpoint of a traced simulation marshals the wrappers
   without dragging the recorder along.

   Reading the clock costs about as much as a small handler, so the
   recorder times one top-level span tree (a span entered with no span
   open) in [sample_every], with every span nested inside it, and counts
   every call. Per-kind totals are extrapolated by calls / timed calls,
   after subtracting the calibrated cost of the timed spans' own clock
   reads. *)

type kind = Deliver | Enqueue | Dequeue | On_ack | Early | Audit

let n_kinds = 6

let index = function
  | Deliver -> 0
  | Enqueue -> 1
  | Dequeue -> 2
  | On_ack -> 3
  | Early -> 4
  | Audit -> 5

let name = function
  | 0 -> "net.deliver"
  | 1 -> "net.disc.enqueue"
  | 2 -> "net.disc.dequeue"
  | 3 -> "tcp.cc.on_ack"
  | 4 -> "core.pert"
  | _ -> "engine.audit"

(* Times are in {!Clock.ticks}, converted to seconds by {!finish}'s
   measured rate. *)
let calls = Array.make n_kinds 0
let timed = Array.make n_kinds 0
let incl_t = Array.make n_kinds 0
let self_t = Array.make n_kinds 0

(* Top-level trees: how many, how many timed, and their timed duration. *)
let top_calls = ref 0
let top_timed = ref 0
let top_t = ref 0

(* Trees are picked by a xorshift draw against [mask] (sample_every - 1),
   not by a fixed stride, which could alias with a periodic call
   pattern. *)
let mask = ref 0
let draw = ref 0x2545F4914F6CDD1D

(* The open spans, innermost at [depth - 1]. *)
let max_depth = 64
let depth = ref 0
let sampling = ref false
let st_kind = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_desc = Array.make max_depth 0
let st_id = Array.make max_depth 0

(* Clock overhead in ticks, calibrated by {!reset}: [inner_t] is what an
   empty span measures, [pair_t] what a timed span adds to its parent.
   Both are subtracted, so a span's time estimates the work it wraps. *)
let inner_t = ref 0
let pair_t = ref 0

(* The span log: (id, kind, start ns, end ns, parent id or -1) for the
   first [log_cap] timed spans, kept off the OCaml heap. *)
let log_cap = 1 lsl 16
let log = Bigarray.(Array1.create int c_layout (5 * log_cap))
let log_len = ref 0
let next_id = ref 0

let enter k =
  let k = index k in
  Array.unsafe_set calls k (Array.unsafe_get calls k + 1);
  let d = !depth in
  depth := d + 1;
  if d = 0 then begin
    incr top_calls;
    let x = !draw in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    draw := x;
    sampling := x land !mask = 0
  end;
  if !sampling then begin
    st_kind.(d) <- k;
    st_child.(d) <- 0;
    st_desc.(d) <- 0;
    st_id.(d) <- !next_id;
    incr next_id;
    st_start.(d) <- Clock.ticks ()
  end

let leave () =
  let d = !depth - 1 in
  depth := d;
  if !sampling then begin
    let t = Clock.ticks () in
    let k = st_kind.(d) in
    let desc = st_desc.(d) in
    let dur = t - st_start.(d) - !inner_t - (desc * !pair_t) in
    timed.(k) <- timed.(k) + 1;
    incl_t.(k) <- incl_t.(k) + dur;
    self_t.(k) <- self_t.(k) + dur - st_child.(d);
    if d > 0 then begin
      st_child.(d - 1) <- st_child.(d - 1) + dur;
      st_desc.(d - 1) <- st_desc.(d - 1) + desc + 1
    end
    else begin
      incr top_timed;
      top_t := !top_t + dur
    end;
    let n = !log_len in
    if n < log_cap then begin
      let o = 5 * n in
      Bigarray.Array1.unsafe_set log o st_id.(d);
      Bigarray.Array1.unsafe_set log (o + 1) k;
      Bigarray.Array1.unsafe_set log (o + 2) st_start.(d);
      Bigarray.Array1.unsafe_set log (o + 3) t;
      Bigarray.Array1.unsafe_set log (o + 4) (if d > 0 then st_id.(d - 1) else -1);
      log_len := n + 1
    end
  end

let clear () =
  Array.fill calls 0 n_kinds 0;
  Array.fill timed 0 n_kinds 0;
  Array.fill incl_t 0 n_kinds 0;
  Array.fill self_t 0 n_kinds 0;
  top_calls := 0;
  top_timed := 0;
  top_t := 0;
  depth := 0;
  sampling := false;
  log_len := 0;
  next_id := 0

(* Median over [rounds] of the per-span cost of [n] timed empty spans
   nested in one timed parent: the parent's excess over an empty span is
   what the children added. *)
let calibrate () =
  mask := 0;
  inner_t := 0;
  pair_t := 0;
  let rounds = 21 and n = 2000 in
  let inner = Array.make rounds 0 and pair = Array.make rounds 0 in
  for r = 0 to rounds - 1 do
    clear ();
    for _ = 1 to n do
      enter Audit;
      leave ()
    done;
    inner.(r) <- incl_t.(index Audit) / n;
    clear ();
    enter Audit;
    for _ = 1 to n do
      enter Audit;
      leave ()
    done;
    leave ();
    (* the parent's own empty-span time is already in [inner.(r)] *)
    pair.(r) <- (!top_t - inner.(r)) / n
  done;
  Array.sort compare inner;
  Array.sort compare pair;
  inner_t := inner.(rounds / 2);
  pair_t := pair.(rounds / 2)

let origin_ticks = ref 0
let origin_ns = ref 0
let ns_per_tick = ref 1.0

(* Start a traced repetition timing one top-level tree in
   [sample_every] (a power of two). *)
let reset ~sample_every =
  calibrate ();
  clear ();
  mask := sample_every - 1;
  origin_ticks := Clock.ticks ();
  origin_ns := Clock.now_ns ()

(* Fix the tick rate, measured against the monotonic clock over the
   whole traced repetition. *)
let finish () =
  ns_per_tick :=
    float_of_int (Clock.now_ns () - !origin_ns)
    /. float_of_int (Clock.ticks () - !origin_ticks)

(* [x] ticks measured over [den] of [num] calls, as seconds over all. *)
let scale num den x =
  if den = 0 then 0.0
  else float_of_int x *. float_of_int num /. float_of_int den *. !ns_per_tick *. 1e-9

(* Estimated totals over all calls, in seconds. *)
let incl_s k =
  let k = index k in
  scale calls.(k) timed.(k) incl_t.(k)

let self_s k =
  let k = index k in
  scale calls.(k) timed.(k) self_t.(k)

let calls_of k = calls.(index k)
let top_s () = scale !top_calls !top_timed !top_t

(* Write the span log as tab-separated text, one span per line. *)
let write path =
  let oc = open_out path in
  output_string oc "id\tname\tstart_ns\tend_ns\tparent\n";
  (* times are ns since the repetition started *)
  for n = 0 to !log_len - 1 do
    let g i = Bigarray.Array1.get log ((5 * n) + i) in
    let ns i = Float.to_int (float_of_int (g i - !origin_ticks) *. !ns_per_tick) in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" (g 0) (name (g 1)) (ns 2) (ns 3) (g 4)
  done;
  close_out oc

(* Run [f x] inside a span of kind [k]; exceptions (a discipline's
   [Empty]) close the span on their way out. *)
let wrap1 k f x =
  enter k;
  match f x with
  | v ->
      leave ();
      v
  | exception e ->
      leave ();
      raise e
