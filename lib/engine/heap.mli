(** Growable binary min-heap specialised for event scheduling.

    Keys are [(time, seq)] pairs compared lexicographically, so events at
    equal times pop in insertion order — this makes simulations
    deterministic. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> time:float -> seq:int -> 'a -> unit
(** Insert an element with priority [(time, seq)]. [@alloc.zero]: never
    allocates except for amortised backing-array doubling. *)

val pop : 'a t -> (float * int * 'a) option
(** Remove and return the minimum element, or [None] if empty.

    Convenience API: allocates a tuple and an option per call. Do not
    use it on a hot path — drain loops and the event loop want
    {!min_time_exn}/{!pop_min_exn}, which allocate nothing (enforced by
    pertalloc, see README "Allocation discipline"). *)

exception Empty

val min_time_exn : 'a t -> float
(** Time of the minimum element; O(1), no allocation.
    @raise Empty if the heap is empty. *)

val pop_min_exn : 'a t -> 'a
(** Remove the minimum element and return its payload alone — the
    non-allocating fast path of the event loop ({!Sim.run}): no option,
    no result tuple. Read the key first via {!min_time_exn}. The vacated
    slot is scrubbed so the GC can reclaim the payload immediately.
    @raise Empty if the heap is empty. *)

val pop_min_into : 'a t -> floatarray -> 'a
(** Fused key+payload pop: remove the minimum element, write its time
    into index 0 and its seq into index 1 of the caller-owned scratch
    array (exact as a float for any seq below 2^53), and return the
    payload. One call and zero allocations where
    {!min_time_exn}/{!pop_min_exn} cost two calls plus a boxed float
    return at a non-inlined boundary — this is what {!Sim.run}'s event
    loop uses. The scratch array must have at least 2 slots.
    @raise Empty if the heap is empty. *)

val peek_time : 'a t -> float option
(** Time of the minimum element without removing it.

    Convenience API: boxes the float inside an option per call. Hot
    paths should test {!is_empty} and use {!min_time_exn} instead. *)

val clear : 'a t -> unit
