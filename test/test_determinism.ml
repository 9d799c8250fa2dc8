(* End-to-end replay regression: running an experiment family twice with
   the same root seed must produce byte-identical result rows. This locks
   in the PR 1 fault-replay guarantee across the whole stack — seeded Rng
   splitting, per-simulation id allocation, and registry-free queue/cc
   introspection — not just per module. Before flow ids and discipline
   introspection became per-simulation, the second in-process run saw
   different process-global counters and could diverge. *)

open Experiments

let render tables =
  String.concat "\n" (List.map Output.to_csv tables)

let run_family ?(ctx = Runner.default) id scale =
  match Registry.find id with
  | None -> Alcotest.fail ("unknown experiment family: " ^ id)
  | Some e -> render (e.Registry.run ~ctx scale)

let byte_identical id scale () =
  let first = run_family id scale in
  let second = run_family id scale in
  Alcotest.(check string) (id ^ " rows byte-identical across reruns") first
    second

(* The PR 9 scheduler-equivalence contract, end to end: the calendar
   queue must pop events in exactly the heap's (time, seq) order, so a
   whole experiment family renders byte-identical tables under either
   scheduler — not approximately equal, identical. *)
let scheduler_invariant id scale () =
  let wheel = run_family ~ctx:(Runner.ctx ~scheduler:`Wheel ()) id scale in
  let heap = run_family ~ctx:(Runner.ctx ~scheduler:`Heap ()) id scale in
  Alcotest.(check string)
    (id ^ " rows byte-identical across heap/wheel schedulers")
    wheel heap

(* --- golden digests -------------------------------------------------------

   Byte-identity pinned in the suite rather than checked by hand: the MD5
   of a rendered result and the logical event count of three small runs,
   captured before the per-link delivery pipe replaced per-packet
   delivery events. A change to the event core that alters any delivery
   instant, any pop order or the event ledger changes a digest. The runs
   use only basic IEEE arithmetic (no RED, no web traffic: no [exp],
   [log] or [pow]), so the digests do not depend on the libm. *)

module Sim = Sim_engine.Sim
module Rng = Sim_engine.Rng
module Time = Units.Time
module Rate = Units.Rate
module Topology = Netsim.Topology
module Link = Netsim.Link
module Packet = Netsim.Packet

let hex_digest s = Digest.to_hex (Digest.string s)

(* A PERT/DropTail dumbbell built by hand, so the same topology runs on
   either link service: four flows with distinct RTTs over a 10 Mbps,
   40-packet bottleneck, one reverse flow loading the ACK path. *)
let mini_dumbbell service =
  let sim = Sim.create ~seed:11 () in
  let topo = Topology.create ~service sim in
  let r1 = Topology.add_node topo and r2 = Topology.add_node topo in
  let droptail n = Netsim.Droptail.create ~limit_pkts:n in
  let bneck =
    Topology.add_link topo ~src:r1 ~dst:r2 ~bandwidth:(Rate.bps 1e7)
      ~delay:(Time.s 0.005) ~disc:(droptail 40)
  in
  ignore
    (Topology.add_link topo ~src:r2 ~dst:r1 ~bandwidth:(Rate.bps 1e7)
       ~delay:(Time.s 0.005) ~disc:(droptail 40));
  let host router d =
    let h = Topology.add_node topo in
    ignore
      (Topology.add_duplex topo ~a:h ~b:router ~bandwidth:(Rate.bps 1e8)
         ~delay:(Time.s d) ~disc_ab:(droptail 1000) ~disc_ba:(droptail 1000));
    h
  in
  let pairs =
    List.init 5 (fun i ->
        let d = 0.002 *. float_of_int (i + 1) in
        if i < 4 then (host r1 d, host r2 d) else (host r2 d, host r1 d))
  in
  Topology.compute_routes topo;
  let flows =
    List.mapi
      (fun i (src, dst) ->
        Tcpstack.Flow.create topo ~src ~dst
          ~cc:(Tcpstack.Pert_cc.create ~rng:(Rng.split (Sim.rng sim)) ())
          ~start:(Time.s (0.1 *. float_of_int i))
          ())
      pairs
  in
  Sim.run ~until:(Time.s 8.0) sim;
  let now = Sim.now sim in
  let b = Buffer.create 256 in
  List.iter
    (fun f ->
      Printf.bprintf b "flow %d goodput=%h acked=%d early=%d losses=%d\n"
        (Tcpstack.Flow.id f)
        (Rate.to_bps (Tcpstack.Flow.goodput_bps f ~now))
        (Tcpstack.Flow.acked_pkts f)
        (Tcpstack.Flow.early_responses f)
        (Tcpstack.Flow.loss_events f))
    flows;
  Printf.bprintf b "bneck arrivals=%d drops=%d avgq=%h util=%h maxq=%d\n"
    (Link.arrivals bneck) (Link.drops bneck)
    (Units.Pkts.to_float (Link.avg_queue_pkts bneck))
    (Link.utilization bneck) (Link.max_queue_pkts bneck);
  (hex_digest (Buffer.contents b), Sim.events_executed sim)

(* Random arrivals on one jittered link (jitter well above the
   serialisation time, so deliveries overtake); the log is every
   delivery's sequence number and exact instant. *)
let jitter_log () =
  let sim = Sim.create ~seed:23 () in
  let a = Packet.create_arena () in
  let link =
    Link.create ~jitter:(Time.s 0.003) sim ~arena:a ~name:"jitter"
      ~bandwidth:(Rate.bps 1e7) ~delay:(Time.s 0.005)
      ~disc:(Netsim.Droptail.create ~limit_pkts:20)
  in
  let b = Buffer.create 4096 in
  Link.set_deliver link (fun p ->
      Printf.bprintf b "%d %h\n" (Packet.seq a p) (Sim.now sim);
      Packet.free a p);
  let rng = Rng.create 5 in
  let t = ref 0.0 in
  for seq = 0 to 299 do
    t := !t +. Rng.float rng 0.002;
    Thunk.at sim (Time.s !t) (fun () ->
        Link.send link
          (Packet.data a ~flow:0 ~src:0 ~dst:1 ~seq ~ecn:false
             ~now:(Sim.now sim) ()))
  done;
  Sim.run sim;
  Printf.bprintf b "arrivals=%d drops=%d\n" (Link.arrivals link)
    (Link.drops link);
  (hex_digest (Buffer.contents b), Sim.events_executed sim)

let golden name run ~digest ~events () =
  let d, n = run () in
  Alcotest.(check string) (name ^ " result digest") digest d;
  Alcotest.(check int) (name ^ " event count") events n

let suite =
  [
    ( "faults family replays byte-identically",
      `Slow,
      byte_identical "faults" Scale.Smoke );
    ( "fig6 family replays byte-identically (smoke)",
      `Slow,
      byte_identical "fig6" Scale.Smoke );
    ( "faults family is scheduler-invariant",
      `Slow,
      scheduler_invariant "faults" Scale.Smoke );
    ( "fig6 family is scheduler-invariant (smoke)",
      `Slow,
      scheduler_invariant "fig6" Scale.Smoke );
    ( "golden digest: PERT/DropTail dumbbell (batched)",
      `Quick,
      golden "batched dumbbell"
        (fun () -> mini_dumbbell Link.Batched)
        ~digest:"22a95aaf651a888de3fc9ce197c44c54" ~events:135486 );
    ( "golden digest: PERT/DropTail dumbbell (eager)",
      `Quick,
      golden "eager dumbbell"
        (fun () -> mini_dumbbell Link.Eager)
        ~digest:"0ee44e0314bdebeb05a9279dd179ea90" ~events:117284 );
    ( "golden digest: jittered-link delivery log",
      `Quick,
      golden "jitter log" jitter_log
        ~digest:"3015cb16b2509a6bb2ac96aea197c14f" ~events:952 );
  ]
