(* Live checkpoint/restore tests.

   Engine level: snapshot round-trips preserve state and sharing; an
   armed [max_events] budget keeps counting across a restore instead of
   restarting from zero (the crash-recovery accounting regression); the
   wall budget's 256-event sampling does not trip spuriously after the
   restore-time rebase; foreign and corrupt snapshot files are
   refused; the four router AQM handles read back and decide exactly
   as the originals after a load, with no repair step.

   Scenario level, the cut-point invariance oracle: interrupt a real
   dumbbell run at a *random* event count (via the event budget, which
   raises before popping, so the simulation is consistent), snapshot it,
   restore in-process with [Sim.Snapshot.load] alone, finish — the
   canonical rendering of the result must be byte-identical to the
   uninterrupted run's, under both schedulers, for a faults-style lossy
   PERT scenario, a fig9-style one with live web sessions (whose think
   timers are pending at almost every cut), and a fig6-sized run of
   every router AQM and end-host controller. *)

module Sim = Sim_engine.Sim
module Event = Sim_engine.Event
module D = Experiments.Dumbbell
module Schemes = Experiments.Schemes
module T = Netsim.Topology

let temp_snap () =
  let path = Filename.temp_file "pert-ckpt" ".snap" in
  Sys.remove path;
  path

let cleanup path = if Sys.file_exists path then Sys.remove path

(* --- engine-level harness: a counting tick plus a one-shot save ---------- *)

type counter = { mutable count : int }

let tick_ev =
  Event.define_rec ~name:"test.ckpt-tick" (fun self (sim, c) ->
      c.count <- c.count + 1;
      Sim.after_ev sim (Units.Time.s 0.001) (self (sim, c)))

let save_ev =
  Event.define ~name:"test.ckpt-save" (fun (sim, c, path) ->
      ignore (Sim.Snapshot.save sim ~world:c ~path))

(* One scenario, run twice: straight through its 1000-event budget, and
   via the snapshot written at t=0.4s. Restored, the budget must trip at
   the same absolute event count — a budget that restarted from zero
   would let the resumed run execute ~600 extra events and overshoot the
   straight run's counter. *)
let budget_continues_across_restore () =
  let path = temp_snap () in
  let arm sim c =
    Sim.at_ev sim (Units.Time.s 0.0) (tick_ev (sim, c));
    Sim.at_ev sim (Units.Time.s 0.4) (save_ev (sim, c, path));
    Sim.set_budget sim ~max_events:1000 ()
  in
  let straight_events, straight_count =
    let sim = Sim.create ~seed:7 ~scheduler:`Wheel () in
    let c = { count = 0 } in
    arm sim c;
    (* First pass writes the snapshot file too; throw it away so the
       second pass rewrites it from an identical universe. *)
    (try Sim.run ~until:(Units.Time.s 10.0) sim
     with Sim.Budget_exceeded _ -> ());
    (Sim.events_executed sim, c.count)
  in
  Alcotest.(check int) "straight run trips at max_events" 1000 straight_events;
  cleanup path;
  let sim = Sim.create ~seed:7 ~scheduler:`Wheel () in
  let c = { count = 0 } in
  arm sim c;
  (try Sim.run ~until:(Units.Time.s 10.0) sim
   with Sim.Budget_exceeded _ -> ());
  let sim2, (c2 : counter) = Sim.Snapshot.load ~path in
  cleanup path;
  let resumed_from = c2.count in
  Alcotest.(check bool)
    "restore rewinds to the snapshot point" true
    (resumed_from < straight_count);
  let tripped_at =
    match Sim.run ~until:(Units.Time.s 10.0) sim2 with
    | () -> Alcotest.fail "restored budget never tripped"
    | exception Sim.Budget_exceeded { events; exhausted; _ } ->
        Alcotest.(check string) "exhausted max_events" "max_events" exhausted;
        events
  in
  Alcotest.(check int)
    "budget continues from the pre-crash event count, not zero" 1000
    tripped_at;
  Alcotest.(check int)
    "resumed run reaches exactly the straight run's state" straight_count
    c2.count

(* An armed wall budget rebases its start at load time to the wall time
   already consumed. If the rebase were wrong (start left at zero or at
   the saving process's absolute clock), the first 256-event sample
   after the restore would see hours of phantom elapsed time and trip a
   3600 s budget instantly. *)
let wall_budget_no_skew_at_resume () =
  let path = temp_snap () in
  let sim = Sim.create ~seed:3 ~scheduler:`Heap () in
  let c = { count = 0 } in
  Sim.at_ev sim (Units.Time.s 0.0) (tick_ev (sim, c));
  Sim.at_ev sim (Units.Time.s 0.25) (save_ev (sim, c, path));
  Sim.set_budget sim ~max_events:1_000_000 ~max_wall:(Units.Time.s 3600.0) ();
  Sim.run ~until:(Units.Time.s 0.5) sim;
  let sim2, (c2 : counter) = Sim.Snapshot.load ~path in
  cleanup path;
  (match Sim.run ~until:(Units.Time.s 0.5) sim2 with
  | () -> ()
  | exception Sim.Budget_exceeded { exhausted; _ } ->
      Alcotest.failf "wall budget tripped spuriously after restore (%s)"
        exhausted);
  Alcotest.(check int) "resumed run reaches the straight run's state" c.count
    c2.count

let rejects_foreign_and_corrupt () =
  let path = temp_snap () in
  (* Not a snapshot at all. *)
  let oc = open_out_bin path in
  output_string oc "definitely not a snapshot\n";
  close_out oc;
  (match Sim.Snapshot.load ~path with
  | (_ : Sim.t * unit) -> Alcotest.fail "garbage file accepted"
  | exception Sim.Snapshot.Incompatible _ -> ());
  (* A real snapshot with a flipped payload byte must fail its checksum. *)
  let sim = Sim.create ~seed:9 ~scheduler:`Wheel () in
  let c = { count = 0 } in
  Sim.at_ev sim (Units.Time.s 0.0) (tick_ev (sim, c));
  Sim.run ~until:(Units.Time.s 0.05) sim;
  ignore (Sim.Snapshot.save sim ~world:c ~path);
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = really_input_string ic len in
  close_in ic;
  let b = Bytes.of_string bytes in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  (match Sim.Snapshot.load ~path with
  | (_ : Sim.t * counter) -> Alcotest.fail "corrupt payload accepted"
  | exception Sim.Snapshot.Incompatible msg ->
      Alcotest.(check bool) "checksum named in the diagnostic" true
        (String.length msg > 0));
  cleanup path

(* --- router AQM handles across a restore --------------------------------- *)

type aqm_world = {
  red : Netsim.Red.t;
  pi : Netsim.Pi_queue.t;
  rem : Netsim.Rem.t;
  avq : Netsim.Avq.t;
  arena : Netsim.Packet.arena;
}

let aqm_world sim =
  let rng () = Sim_engine.Rng.split (Sim.rng sim) in
  let red_params =
    {
      (Netsim.Red.auto_params ~capacity_pps:1000.0 ~limit_pkts:100 ()) with
      Netsim.Red.wq = 0.05;
    }
  in
  {
    red =
      Netsim.Red.create ~rng:(rng ()) ~params:red_params ~capacity_pps:1000.0
        ~limit_pkts:100;
    pi =
      Netsim.Pi_queue.create ~rng:(rng ())
        ~params:
          {
            Netsim.Pi_queue.a = 0.01;
            b = 0.005;
            q_ref = 5.0;
            sample_interval = Units.Time.s 0.01;
            ecn = true;
          }
        ~limit_pkts:100;
    rem =
      Netsim.Rem.create ~rng:(rng ())
        ~params:(Netsim.Rem.default_params ~capacity_pps:100.0)
        ~capacity_pps:100.0 ~limit_pkts:100;
    avq =
      Netsim.Avq.create ~params:(Netsim.Avq.default_params ())
        ~capacity_pps:100.0 ~limit_pkts:100;
    arena = Netsim.Packet.create_arena ();
  }

(* Every accessor of the four handles, in a fixed order. *)
let aqm_readings w =
  [
    Netsim.Red.avg_queue w.red;
    Units.Prob.to_float (Netsim.Red.current_max_p w.red);
    Units.Prob.to_float (Netsim.Pi_queue.probability w.pi);
    Netsim.Rem.price w.rem;
    Units.Prob.to_float (Netsim.Rem.mark_probability w.rem);
    Netsim.Avq.virtual_capacity w.avq;
  ]

(* Offer arrivals [first..last], 1 ms apart, to every discipline and
   serve one packet every other arrival, so a backlog builds; returns
   the verdicts in order. *)
let drive_aqms w ~first ~last =
  let discs =
    [
      Netsim.Red.disc w.red;
      Netsim.Pi_queue.disc w.pi;
      Netsim.Rem.disc w.rem;
      Netsim.Avq.disc w.avq;
    ]
  in
  let verdicts = ref [] in
  for i = first to last do
    let now = 0.001 *. float_of_int i in
    List.iter
      (fun (d : Netsim.Queue_disc.t) ->
        let pkt =
          Netsim.Packet.data w.arena ~flow:0 ~src:0 ~dst:1 ~seq:i ~ecn:true
            ~now ()
        in
        let v =
          d.enqueue ~now ~size:(Netsim.Packet.size w.arena pkt) ~ecn:true pkt
        in
        verdicts :=
          (match v with
          | Netsim.Queue_disc.Accept -> "accept"
          | Accept_marked -> "mark"
          | Reject ->
              Netsim.Packet.free w.arena pkt;
              "reject")
          :: !verdicts;
        if i mod 2 = 0 then
          match d.dequeue ~now with
          | p -> Netsim.Packet.free w.arena p
          | exception Netsim.Queue_disc.Empty -> ())
      discs
  done;
  List.rev !verdicts

let aqm_handles_survive_restore () =
  let sim = Sim.create ~seed:5 () in
  let w = aqm_world sim in
  ignore (drive_aqms w ~first:0 ~last:400);
  (match aqm_readings w with
  | [ red_avg; _; pi_p; rem_price; _; avq_c ] ->
      Alcotest.(check bool)
        "precondition: every controller has left its initial state" true
        (red_avg > 0.0 && pi_p > 0.0 && rem_price > 0.0 && avq_c < 98.0)
  | _ -> assert false);
  let path = temp_snap () in
  ignore (Sim.Snapshot.save sim ~world:w ~path);
  let _sim2, (w2 : aqm_world) = Sim.Snapshot.load ~path in
  cleanup path;
  let exact =
    Alcotest.testable (fun ppf -> Format.fprintf ppf "%.17g") Float.equal
  in
  Alcotest.(check (list exact))
    "loaded accessors read the originals' values" (aqm_readings w)
    (aqm_readings w2);
  let straight = drive_aqms w ~first:401 ~last:800 in
  Alcotest.(check (list string))
    "loaded disciplines decide as the originals do" straight
    (drive_aqms w2 ~first:401 ~last:800);
  Alcotest.(check (list exact))
    "and end in the same state" (aqm_readings w) (aqm_readings w2)

(* --- cut-point invariance ------------------------------------------------- *)

(* Phase tracker mirroring [Dumbbell.run]'s warmup/measure split, saved
   as the snapshot's world so a restore knows whether the stats reset
   already happened. *)
type phased = { built : D.built; mutable warm : bool }

let finish (w : phased) =
  let sim = T.sim w.built.D.topo in
  let config = w.built.D.config in
  if not w.warm then begin
    Sim.run ~until:(Units.Time.s config.D.warmup) sim;
    D.reset w.built;
    w.warm <- true
  end;
  Sim.run ~until:(Units.Time.s config.D.duration) sim;
  D.measure w.built

(* Canonical full-precision rendering: byte-equal iff results are equal. *)
let render (r : D.result) =
  let b = Buffer.create 512 in
  Printf.bprintf b "%.17g %.17g %.17g %.17g %.17g %d %d %d %d %d"
    (Units.Pkts.to_float r.D.avg_queue_pkts)
    r.D.avg_queue_norm r.D.drop_rate r.D.utilization r.D.jain r.D.buffer_pkts
    r.D.marks r.D.early_responses r.D.loss_events r.D.audit_violations;
  Array.iter
    (fun g -> Printf.bprintf b " %.17g" (Units.Rate.to_bps g))
    r.D.per_flow_goodput;
  Buffer.contents b

let faults_like scheduler =
  D.uniform_flows
    {
      D.default with
      D.scheme = Schemes.Pert;
      bandwidth = 10e6;
      duration = 8.0;
      warmup = 2.0;
      fault = Some (Netsim.Fault.lossy (Units.Prob.v 0.01));
      seed = 11;
      scheduler;
    }
    ~n:4

(* A 2 s bottleneck outage inside the measured window: timeouts back
   off across it, so some cuts land between an RTO event's early
   wake-up and its deadline, and some inside a backoff. The flows start
   in (0, 5) s, so the outage spans only events ~350-550 of ~16 k; its
   cuts are drawn from the first 2000 events, around the outage. *)
let outage_like scheduler =
  {
    (faults_like scheduler) with
    D.fault =
      Some
        {
          Netsim.Fault.none with
          outages = Scheduled [ (Units.Time.s 3.0, Units.Time.s 5.0) ];
        };
  }

let fig6_like scheduler =
  D.uniform_flows
    {
      D.default with
      D.scheme = Schemes.Pert_ecn;
      bandwidth = 10e6;
      duration = 8.0;
      warmup = 2.0;
      seed = 42;
      scheduler;
    }
    ~n:4

(* Any scheme at the fig6_like size: the router AQMs and end-host
   controllers that `sim --checkpoint` can save mid-run. *)
let fig6_scheme scheme scheduler = { (fig6_like scheduler) with D.scheme }
let pi_target = Units.Time.s 0.003

let fig9_like scheduler =
  D.uniform_flows
    {
      D.default with
      D.scheme = Schemes.Sack_red_ecn;
      bandwidth = 10e6;
      web_sessions = 30;
      duration = 8.0;
      warmup = 2.0;
      seed = 52;
      scheduler;
    }
    ~n:4

let straight config = finish { built = D.build config; warm = false }

(* The straight reference depends only on the config, not the cut; cache
   it so each QCheck case costs one interrupted run, not two full ones. *)
let straight_cached =
  let cache = Hashtbl.create 4 in
  fun key config ->
    match Hashtbl.find_opt cache key with
    | Some r -> r
    | None ->
        let r = straight config in
        Hashtbl.add cache key r;
        r

(* The outage input only covers re-armed and backed-off RTOs if the
   straight run actually times out. *)
let outage_run_loses () =
  let r = straight_cached ("faults-outage", true) (outage_like `Wheel) in
  Alcotest.(check bool) "straight run has loss events" true (r.D.loss_events > 0)

let cut_resume config ~cut =
  let w = { built = D.build config; warm = false } in
  let sim = T.sim w.built.D.topo in
  Sim.set_budget sim ~max_events:cut ();
  match finish w with
  | r ->
      (* Cut beyond the run's horizon: nothing to restore. *)
      render r
  | exception Sim.Budget_exceeded _ ->
      let path = temp_snap () in
      ignore (Sim.Snapshot.save sim ~world:w ~path);
      let sim2, (w2 : phased) = Sim.Snapshot.load ~path in
      cleanup path;
      Sim.clear_budget sim2;
      render (finish w2)

let cut_invariance ?(cuts = QCheck.int_range 500 60_000) name mk_config =
  QCheck.Test.make ~count:6
    ~name:(name ^ " is cut-point invariant (random checkpoint event count)")
    QCheck.(pair cuts bool)
    (fun (cut, wheel) ->
      let scheduler = if wheel then `Wheel else `Heap in
      let config = mk_config scheduler in
      let reference = render (straight_cached (name, wheel) config) in
      String.equal reference (cut_resume config ~cut))

(* --- the delivery pipe across a restore ----------------------------------

   A jittered link cut while its delivery pipe holds an overtaking
   entry. Two packets are sent together at t=0; with this seed the
   second one's jitter draw is smaller than the first's by more than a
   serialisation time, so it is due first. At the cut both are on the
   wire (the batched server materialised the second at its anchor,
   [tx + delay]; the eager one finished it at [2 tx]) and neither is
   delivered, so the pipe holds the overtaker at its head and the first
   packet behind it: two pending delivery events for one link. The
   restored run must deliver exactly what the straight run delivers, at
   the same instants, with more traffic arriving after the cut. *)

type pipe_world = { plog : (int * float) list ref }

let jittered_link service =
  let sim = Sim.create ~seed:4 () in
  let a = Netsim.Packet.create_arena () in
  let link =
    Netsim.Link.create ~service ~jitter:(Units.Time.s 0.01) sim ~arena:a
      ~name:"j" ~bandwidth:(Units.Rate.bps 1e7) ~delay:(Units.Time.s 0.005)
      ~disc:(Netsim.Droptail.create ~limit_pkts:100)
  in
  let plog = ref [] in
  Netsim.Link.set_deliver link (fun p ->
      plog := (Netsim.Packet.seq a p, Sim.now sim) :: !plog;
      Netsim.Packet.free a p);
  let send seq =
    Netsim.Link.send link
      (Netsim.Packet.data a ~flow:0 ~src:0 ~dst:1 ~seq ~ecn:false
         ~now:(Sim.now sim) ())
  in
  Thunk.at sim (Units.Time.s 0.0) (fun () ->
      send 0;
      send 1);
  for seq = 2 to 40 do
    Thunk.at sim
      (Units.Time.s (0.01 +. (0.0007 *. float_of_int seq)))
      (fun () -> send seq)
  done;
  (sim, { plog })

let pipe_restore_matches service () =
  let tx = float_of_int (8 * Netsim.Packet.data_size) /. 1e7 in
  let cut = 0.005 +. (1.5 *. tx) in
  let sim, w = jittered_link service in
  Sim.run ~until:(Units.Time.s cut) sim;
  Alcotest.(check int) "nothing delivered before the cut" 0
    (List.length !(w.plog));
  let path = temp_snap () in
  ignore (Sim.Snapshot.save sim ~world:w ~path);
  Sim.run sim;
  let straight = List.rev !(w.plog) in
  (match straight with
  | (1, _) :: (0, _) :: _ -> ()
  | _ -> Alcotest.fail "precondition: packet 1 must overtake packet 0");
  let sim2, (w2 : pipe_world) = Sim.Snapshot.load ~path in
  cleanup path;
  Sim.run sim2;
  Alcotest.(check (list (pair int (float 0.0))))
    "restored delivery log = straight log" straight (List.rev !(w2.plog))

let suite =
  [
    ( "event budget continues across a restore",
      `Quick,
      budget_continues_across_restore );
    ( "wall budget sampling does not skew at resume",
      `Quick,
      wall_budget_no_skew_at_resume );
    ( "foreign and corrupt snapshots are refused",
      `Quick,
      rejects_foreign_and_corrupt );
    ( "router AQM handles read back and decide alike after a load",
      `Quick,
      aqm_handles_survive_restore );
    ("faults-outage straight run loses packets", `Quick, outage_run_loses);
    ( "overtaking delivery pipe survives a restore (batched)",
      `Quick,
      pipe_restore_matches Netsim.Link.Batched );
    ( "overtaking delivery pipe survives a restore (eager)",
      `Quick,
      pipe_restore_matches Netsim.Link.Eager );
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        cut_invariance "faults-lossy" faults_like;
        cut_invariance ~cuts:(QCheck.int_range 300 2_000) "faults-outage"
          outage_like;
        cut_invariance "fig6-pert-ecn" fig6_like;
        cut_invariance "fig9-web" fig9_like;
        cut_invariance "fig6-pert-pi"
          (fig6_scheme (Schemes.Pert_pi { target_delay = pi_target }));
        cut_invariance "fig6-sack-pi-ecn"
          (fig6_scheme (Schemes.Sack_pi_ecn { target_delay = pi_target }));
        cut_invariance "fig6-sack-rem-ecn" (fig6_scheme Schemes.Sack_rem_ecn);
        cut_invariance "fig6-sack-avq-ecn" (fig6_scheme Schemes.Sack_avq_ecn);
        cut_invariance "fig6-pert-rem" (fig6_scheme Schemes.Pert_rem);
        cut_invariance "fig6-pert-avq" (fig6_scheme Schemes.Pert_avq);
        cut_invariance "fig6-vegas" (fig6_scheme Schemes.Vegas);
      ]
