(* Non-allocating monotonic clock, nanoseconds since an arbitrary origin. *)
external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns" "perfbench_now_ns_unboxed"
[@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Cheaper non-allocating counter for spans, in ticks of unknown rate
   (see clock_stubs.c); {!Span} measures the rate against [now_ns]. *)
external ticks : unit -> (int[@untagged])
  = "perfbench_ticks" "perfbench_ticks_unboxed"
[@@noalloc]
