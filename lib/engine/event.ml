(* Defunctionalized scheduler events.

   The event loop used to store [unit -> unit] closures; a closure is
   opaque to {!Sim.Snapshot}, which must be able to write every pending
   event as plain data. An [Event.t] splits the closure into its two
   halves: a static code half (the [run] field — a module-toplevel
   handler registered once per event *kind*, shared by every event of
   that kind) and a data half (the [a]/[i] payload, ordinary marshalable
   values). [exec] reunites them.

   The code half still crosses a snapshot as a Marshal code pointer
   ([Marshal.Closures]); that is sound because restore only ever happens
   into the same binary — {!Sim.Snapshot} enforces it with a
   build-digest header. What defunctionalization buys is the *payload*:
   a handler registered with [define] can only close over module
   toplevels (it is built at module init), so the mutable state an event
   touches necessarily lives in its payload — inside the marshaled
   object graph — and never in a hidden environment that a checkpoint
   would silently duplicate or drop.

   The constructors below are the only way to build an event, so every
   pending event is checkpointable by construction. *)

type t = {
  run : Obj.t -> int -> unit;
      (* static dispatch half: shared per kind, never per event *)
  name : string;  (* kind name, for diagnostics *)
  a : Obj.t;  (* boxed payload ([Obj.repr] of the constructor argument) *)
  i : int;  (* unboxed payload (packet id, generation counter, ...) *)
}

let check_name name = if name = "" then invalid_arg "Event: empty kind name"

(* The payload travels as [Obj.t]: [Obj.repr] on construction,
   [Obj.obj] at dispatch. The pairing is safe by construction — the only
   way to build an event carrying some ['a] is through the constructor
   returned alongside the handler that reads it back at the same ['a]
   (same [define]/[declare] call), so the two casts always agree. *)

let define ~name f =
  check_name name;
  let run a _i = f (Obj.obj a) in
  fun x -> { run; name; a = Obj.repr x; i = 0 }

let define2 ~name f =
  check_name name;
  let run a i = f (Obj.obj a) i in
  fun x i -> { run; name; a = Obj.repr x; i }

let define_rec ~name f =
  check_name name;
  let rec run a _i = f mk (Obj.obj a)
  and mk x = { run; name; a = Obj.repr x; i = 0 } in
  mk

(* Two-step registration for kinds whose handler is only definable after
   the constructor exists (mutually recursive protocol code: the RTO
   handler calls functions that themselves schedule RTO events). The
   cell is written exactly once, at module init, before any event can
   fire; a constructed-but-never-armed kind fails loudly. *)
let declare ~name =
  check_name name;
  let cell =
    ref (fun _ _ -> failwith ("Event: handler never set for kind " ^ name))
  in
  let run a i = !cell a i in
  let mk x i = { run; name; a = Obj.repr x; i } in
  let set f = cell := (fun a i -> f (Obj.obj a) i) in
  (mk, set)

(* pertalloc assumes a call through a function-typed field allocates;
   [run] is a static per-kind closure built once at [define] time, so
   the dispatch itself is allocation-free (handler bodies are charged
   at their own definition sites). *)
let[@inline] exec e = (e.run e.a e.i [@lint.allow "A1"])
