(* The traced run: the same dumbbell as [Dumbbell.build], wired here from
   the library's public constructors so that every call into a layer can
   be wrapped in a span. The wiring follows [Dumbbell.build] call for
   call — the same nodes, links and flows in the same order, so the same
   random-number splits — and the traced run must reproduce the untraced
   run's result and event count exactly; the benchmark checks that.

   Wrapped boundaries:
   - every link's delivery callback ([Link.interpose_deliver]): net;
   - every [Queue_disc.t], copied into a record whose [enqueue] and
     [dequeue] are timed: net.disc;
   - every [Cc.t] made by the scheme's factory (long flows and web
     objects): [on_ack] is tcp.cc, [early] is the PERT decision, core;
   - every audit check closure: engine.audit. *)

module D = Experiments.Dumbbell
module Schemes = Experiments.Schemes
module Sim = Sim_engine.Sim
module Rng = Sim_engine.Rng
module Audit = Sim_engine.Audit
module T = Netsim.Topology
module Link = Netsim.Link
module Packet = Netsim.Packet
module Queue_disc = Netsim.Queue_disc
module Flow = Tcpstack.Flow
module Cc = Tcpstack.Cc

(* Verdict and response counters, beside the span recorder's. *)
let accepted = ref 0
let marked = ref 0
let rejected = ref 0
let responses = ref 0

let reset_counters () =
  accepted := 0;
  marked := 0;
  rejected := 0;
  responses := 0

let wrap_disc (d : Queue_disc.t) =
  {
    d with
    enqueue =
      (fun ~now ~size ~ecn p ->
        Span.enter Span.Enqueue;
        let v = d.enqueue ~now ~size ~ecn p in
        Span.leave ();
        (match v with
        | Queue_disc.Accept -> incr accepted
        | Queue_disc.Accept_marked ->
            incr accepted;
            incr marked
        | Queue_disc.Reject -> incr rejected);
        v);
    dequeue =
      (fun ~now ->
        Span.enter Span.Dequeue;
        match d.dequeue ~now with
        | p ->
            Span.leave ();
            p
        | exception e ->
            (* [Empty] is how a discipline says it has nothing to send *)
            Span.leave ();
            raise e);
  }

let wrap_cc (c : Cc.t) =
  {
    c with
    on_ack =
      (fun w ~newly_acked ~rtt ~now ->
        Span.enter Span.On_ack;
        c.on_ack w ~newly_acked ~rtt ~now;
        Span.leave ());
    early =
      (fun w ~rtt ~now ->
        Span.enter Span.Early;
        let a = c.early w ~rtt ~now in
        Span.leave ();
        (match a with Cc.Reduce _ -> incr responses | Cc.No_response -> ());
        a);
  }

let wrap_link l =
  Link.interpose_deliver l (fun inner p ->
      Span.enter Span.Deliver;
      inner p;
      Span.leave ())

(* Mirrors of [Dumbbell]'s private sizing rules. *)
let access_buffer = 10_000

let buffer_size (config : D.config) =
  match config.buffer_pkts with
  | Some b -> b
  | None ->
      max
        (D.bdp_pkts ~bandwidth:config.bandwidth ~rtt:config.rtt)
        (max 4 (2 * List.length config.flow_rtts))

let build (config : D.config) =
  if Option.is_some config.fault || Option.is_some config.adversary then
    invalid_arg "Trace.build: faults and adversaries are not wired";
  let sim = Sim.create ~seed:config.seed ~scheduler:config.scheduler () in
  let topo = T.create sim in
  let r1 = T.add_node topo and r2 = T.add_node topo in
  let capacity_pps = config.bandwidth /. (8.0 *. float_of_int Packet.data_size) in
  let ctx =
    {
      Schemes.sim;
      capacity_pps;
      limit_pkts = buffer_size config;
      rtt = config.rtt;
      nflows = List.length config.flow_rtts;
    }
  in
  let min_rtt = List.fold_left Float.min config.rtt config.flow_rtts in
  let bneck_delay = min_rtt /. 6.0 in
  let bneck src dst =
    T.add_link topo ~src ~dst
      ~bandwidth:(Units.Rate.bps config.bandwidth)
      ~delay:(Units.Time.s bneck_delay)
      ~disc:(wrap_disc (Schemes.bottleneck_disc config.scheme ctx))
  in
  let bottleneck = bneck r1 r2 in
  let reverse_bneck = bneck r2 r1 in
  let attach_host router rtt_target =
    let d = Float.max 1e-5 (((rtt_target /. 2.0) -. bneck_delay) /. 2.0) in
    let host = T.add_node topo in
    let disc () = wrap_disc (Netsim.Droptail.create ~limit_pkts:access_buffer) in
    ignore
      (T.add_duplex topo ~a:host ~b:router
         ~bandwidth:(Units.Rate.bps (10.0 *. config.bandwidth))
         ~delay:(Units.Time.s d) ~disc_ab:(disc ()) ~disc_ba:(disc ()));
    host
  in
  let scheme_cc = Schemes.cc_factory config.scheme ctx in
  let cc_factory () = wrap_cc (scheme_cc ()) in
  let ecn = Schemes.uses_ecn config.scheme in
  let rng = Rng.split (Sim.rng sim) in
  let lo, hi = config.start_window in
  let mk_flow ~src ~dst =
    let start = Units.Time.s (if hi > lo then Rng.uniform rng lo hi else lo) in
    let tcp = config.tcp in
    let rcv_buffer =
      Option.map (fun pkts -> Units.Size.bytes (pkts * Packet.mss)) tcp.rcv_buffer_pkts
    in
    Flow.create topo ~src ~dst ~cc:(cc_factory ()) ~ecn ~start
      ~delay_signal:config.delay_signal ?rcv_buffer ?wscale:tcp.wscale
      ~persist:tcp.persist ~rst_validation:tcp.rst_validation ()
  in
  let endpoints =
    List.map (fun rtt -> (attach_host r1 rtt, attach_host r2 rtt)) config.flow_rtts
  in
  let rev_endpoints =
    List.init config.reverse_flows (fun _ ->
        (attach_host r2 config.rtt, attach_host r1 config.rtt))
  in
  let web_pool router =
    Array.init (min 8 (max 1 config.web_sessions)) (fun _ -> attach_host router config.rtt)
  in
  let web_src = web_pool r1 and web_dst = web_pool r2 in
  T.compute_routes topo;
  List.iter wrap_link (T.links topo);
  let forward_flows = List.map (fun (s, d) -> mk_flow ~src:s ~dst:d) endpoints in
  let reverse = List.map (fun (s, d) -> mk_flow ~src:s ~dst:d) rev_endpoints in
  let web =
    if config.web_sessions > 0 then
      Some
        (Traffic.Web.start_sessions topo ~n:config.web_sessions ~src_pool:web_src
           ~dst_pool:web_dst ~cc_factory ~ecn ())
    else None
  in
  let audit =
    if not config.audit then None
    else begin
      let a = Audit.create ~interval:(Units.Time.s 0.1) sim in
      Audit.enable_watchdog a;
      List.iter
        (fun l ->
          Audit.add_check a ~subject:(Link.name l) (fun ~now:_ ->
              Span.wrap1 Span.Audit Link.conservation_error l))
        (T.links topo);
      List.iter
        (fun f ->
          let subject = Printf.sprintf "flow-%d" (Flow.id f) in
          Audit.add_check a ~subject (fun ~now:_ -> Span.wrap1 Span.Audit Flow.audit_check f);
          Audit.add_stall_check a ~subject
            ~stall_after:(Units.Time.s (Float.min 5.0 (config.duration /. 4.0)))
            (fun () -> Span.wrap1 Span.Audit Flow.liveness f))
        (forward_flows @ reverse);
      Some a
    end
  in
  let built =
    {
      D.topo;
      bottleneck;
      reverse_bneck;
      forward_flows;
      reverse;
      config;
      cc_factory;
      routers = (r1, r2);
      fault = None;
      attack = None;
      audit;
    }
  in
  (built, web)

type rep = {
  slices : Drive.slices;
  outcome : Drive.outcome;
  web : Traffic.Web.stats option;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  arena_capacity : int;
  retransmissions : int;  (** long flows, over the measured window *)
  timeouts : int;
  acked : int;
}

(* One traced repetition. *)
let rep ?snap_path ~sample_every (w : Workloads.t) ~seed =
  Drive.settle ();
  let built, web = build (w.config ~seed) in
  let world = { Drive.built; warm = false } in
  let flows = built.D.forward_flows @ built.D.reverse in
  let lifetime f = List.fold_left (fun a fl -> a + f fl) 0 flows in
  let at_warmup = ref None in
  let on_slice () =
    Gcev.poll ();
    if world.warm && Option.is_none !at_warmup then
      at_warmup := Some (lifetime Flow.retransmissions, lifetime Flow.timeouts)
  in
  Span.reset ~sample_every;
  reset_counters ();
  let gc0 = Gc.quick_stat () in
  Gcev.start ();
  let slices = Drive.advance ?snap_path ~on_slice w world in
  Gcev.stop ();
  Span.finish ();
  let gc1 = Gc.quick_stat () in
  let r0, t0 = Option.value !at_warmup ~default:(0, 0) in
  {
    slices;
    outcome = Drive.finish world;
    web;
    gc0;
    gc1;
    arena_capacity = Packet.capacity (T.arena built.D.topo);
    retransmissions = lifetime Flow.retransmissions - r0;
    timeouts = lifetime Flow.timeouts - t0;
    acked = lifetime Flow.acked_pkts;
  }
