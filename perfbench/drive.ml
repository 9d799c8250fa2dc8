(* One repetition of a workload: build, then advance the simulation slice
   by slice with the reference kernel timed at every slice boundary,
   writing checkpoints at the workload's event cadence. The same loop
   drives the untraced repetitions, the traced run and the resumed run
   after a restore, so all three cut the simulation at the same points. *)

module D = Experiments.Dumbbell
module Sim = Sim_engine.Sim
module T = Netsim.Topology
module Link = Netsim.Link
module Flow = Tcpstack.Flow

(* What a checkpoint carries besides the simulator: the built scenario
   and whether the warm-up reset has happened. *)
type world = { built : D.built; mutable warm : bool }

type slices = {
  run_raw : float array;  (** [Sim.run] seconds per slice, raw *)
  save_raw : float array;  (** checkpoint-write seconds per slice, raw *)
  factor : float array;  (** host factor per slice *)
  mutable saves : int;
  mutable snap_bytes : int;  (** size of the last checkpoint written *)
}

let norm_s s = Array.mapi (fun i f -> (s.run_raw.(i) +. s.save_raw.(i)) *. f) s.factor
let sum = Array.fold_left ( +. ) 0.0

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The host factor of a repetition as a whole, for the work timed
   outside its slices (build, restore). A kernel bracketing a build of a
   few milliseconds would run with warm caches, unlike the kernels
   between slices, so it would measure a different host. *)
let host_factor s = median (Array.to_list s.factor)

(* A timed call: [(result, raw seconds)]. *)
let timed f =
  let t0 = Clock.now_ns () in
  let x = f () in
  (x, Clock.seconds_since t0)

(* Advance [world] through every slice boundary it has not reached yet.
   [on_slice] runs untimed after each slice. *)
let advance ?snap_path ?(on_slice = ignore) (w : Workloads.t) world =
  let built = world.built in
  let config = built.D.config in
  let sim = T.sim built.D.topo in
  let bounds = Workloads.boundaries w config in
  let n = Array.length bounds in
  let s =
    {
      run_raw = Array.make n 0.0;
      save_raw = Array.make n 0.0;
      factor = Array.make n 1.0;
      saves = 0;
      snap_bytes = 0;
    }
  in
  let last_save = ref (Sim.events_executed sim) in
  let k = ref (Refkernel.measure_ns ()) in
  Array.iteri
    (fun i b ->
      if b > Sim.now sim then begin
        let t0 = Clock.now_ns () in
        Sim.run ~until:(Units.Time.s b) sim;
        if (not world.warm) && b >= config.warmup then begin
          D.reset built;
          world.warm <- true
        end;
        let t1 = Clock.now_ns () in
        s.run_raw.(i) <- float_of_int (t1 - t0) *. 1e-9;
        (match (snap_path, w.checkpoint_events) with
        | Some path, Some every
          when Sim.events_executed sim - !last_save >= every ->
            s.snap_bytes <- Sim.Snapshot.save sim ~world ~path;
            s.saves <- s.saves + 1;
            s.save_raw.(i) <- Clock.seconds_since t1;
            last_save := Sim.events_executed sim
        | _ -> ());
        let k' = Refkernel.measure_ns () in
        s.factor.(i) <- Refkernel.factor !k k';
        k := k';
        on_slice ()
      end)
    bounds;
  s

(* Canonical full-precision rendering of a result plus the event count:
   equal simulations give equal bytes. *)
let render (r : D.result) ~events =
  let b = Buffer.create 1024 in
  let f fmt = Printf.bprintf b fmt in
  f "events %d\n" events;
  f "avg_queue_pkts %.17g\n" (Units.Pkts.to_float r.avg_queue_pkts);
  f "avg_queue_norm %.17g\n" r.avg_queue_norm;
  f "drop_rate %.17g\n" r.drop_rate;
  f "utilization %.17g\n" r.utilization;
  f "jain %.17g\n" r.jain;
  f "buffer_pkts %d\n" r.buffer_pkts;
  f "marks %d\n" r.marks;
  f "early_responses %d\n" r.early_responses;
  f "loss_events %d\n" r.loss_events;
  f "audit_violations %d\n" r.audit_violations;
  Array.iteri
    (fun i g -> f "flow%d_goodput_bps %.17g\n" i (Units.Rate.to_bps g))
    r.per_flow_goodput;
  Buffer.contents b

type outcome = {
  result : D.result;
  events : int;
  hops : int;  (** packets offered to links over the whole run *)
  digest : string;  (** hex MD5 of {!render} *)
}

let finish world =
  let topo = world.built.D.topo in
  let result = D.measure world.built in
  let events = Sim.events_executed (T.sim topo) in
  let hops = List.fold_left (fun a l -> a + Link.arrivals l) 0 (T.links topo) in
  { result; events; hops; digest = Digest.to_hex (Digest.string (render result ~events)) }

type rep = {
  slices : slices;
  alloc_words : float;  (** minor words allocated while advancing *)
  outcome : outcome;
}

(* Collect the previous repetition's garbage so every build starts from
   the same heap state. *)
let settle () = Gc.full_major ()

let build_timed config =
  settle ();
  timed (fun () -> D.build config)

(* One untraced repetition; with [snap_path] it checkpoints at the
   workload's cadence. *)
let rep ?snap_path (w : Workloads.t) ~seed =
  settle ();
  let world = { built = D.build (w.config ~seed); warm = false } in
  let m0 = Gc.minor_words () in
  let slices = advance ?snap_path w world in
  let alloc_words = Gc.minor_words () -. m0 in
  { slices; alloc_words; outcome = finish world }

(* Restore-time repair of the world's extension-constructor values (see
   [Experiments.Schemes.rehydrate_disc]): every link's discipline and
   every long-lived flow's controller. *)
let rehydrate world =
  let b = world.built in
  List.iter (fun l -> Experiments.Schemes.rehydrate_disc (Link.disc l)) (T.links b.D.topo);
  List.iter (fun f -> Experiments.Schemes.rehydrate_cc (Flow.cc f)) (b.D.forward_flows @ b.D.reverse)

(* Load the checkpoint at [path], ready to resume: the restore cost a
   crashed run pays before it can continue. *)
let restore path =
  settle ();
  timed (fun () ->
      let _sim, (world : world) = Sim.Snapshot.load ~path in
      rehydrate world;
      world)
