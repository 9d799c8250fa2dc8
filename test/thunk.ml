(* Test-only event kinds whose payload is a closure, so a test can
   schedule an ad-hoc action without registering a kind per call site.
   Production code registers one kind per event with plain-data payloads
   ({!Sim_engine.Event}); a pending thunk still marshals, but only into
   the binary that wrote it, which is all a test ever restores into. *)

module Sim = Sim_engine.Sim
module Event = Sim_engine.Event

let thunk = Event.define ~name:"test.thunk" (fun f -> f ())
let at sim time f = Sim.at_ev sim time (thunk f)
let after sim delay f = Sim.after_ev sim delay (thunk f)

(* A periodic tick: runs [f], then reschedules itself [period] later
   unless the run was stopped — the stop-aware rescheduling every
   production tick (audit, CBR, fault storms, checkpoints) follows. *)
type tick = { sim : Sim.t; period : Units.Time.t; f : unit -> unit }

let tick =
  Event.define_rec ~name:"test.tick" (fun self p ->
      p.f ();
      if not (Sim.stopped p.sim) then Sim.after_ev p.sim p.period (self p))

(* First run at [start] (default one [period] from now). *)
let every sim ?start period f =
  let start =
    match start with
    | Some s -> s
    | None -> Units.Time.s (Sim.now sim +. Units.Time.to_s period)
  in
  Sim.at_ev sim start (tick { sim; period; f })
