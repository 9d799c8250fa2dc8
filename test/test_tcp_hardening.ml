(* Tests for the adversarial-hardening layer of the TCP stack:
   zero-window persist machinery (RFC 793/6429), RST validation
   (RFC 5961), window-scale negotiation (RFC 1323), the corrupted-segment
   validity gate, and determinism of the adversarial experiment family. *)

module Sim = Sim_engine.Sim
module Audit = Sim_engine.Audit
module T = Netsim.Topology
module Link = Netsim.Link
module Packet = Netsim.Packet
module Node = Netsim.Node
open Tcpstack

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ts = Units.Time.s

type fixture = {
  sim : Sim.t;
  topo : T.t;
  src : Node.t;
  dst : Node.t;
  bottleneck : Link.t;
  reverse : Link.t;  (* the ACK-path bottleneck *)
}

(* src -- r1 ==bottleneck== r2 -- dst. Bottleneck speed/delay pluggable:
   the default (10 Mbps / ~24 ms RTT) keeps the BDP small; the window-
   scaling tests raise it so the BDP exceeds the unscaled 64 KB cap. *)
let fixture ?(bandwidth = 10e6) ?(delay = 0.01) ?(seed = 11) () =
  let sim = Sim.create ~seed () in
  let topo = T.create sim in
  let src = T.add_node topo
  and r1 = T.add_node topo
  and r2 = T.add_node topo
  and dst = T.add_node topo in
  let fast () = Netsim.Droptail.create ~limit_pkts:10_000 in
  ignore
    (T.add_duplex topo ~a:src ~b:r1
       ~bandwidth:(Units.Rate.bps (10.0 *. bandwidth))
       ~delay:(ts 0.001) ~disc_ab:(fast ()) ~disc_ba:(fast ()));
  let bottleneck =
    T.add_link topo ~src:r1 ~dst:r2 ~bandwidth:(Units.Rate.bps bandwidth)
      ~delay:(ts delay) ~disc:(fast ())
  in
  let reverse =
    T.add_link topo ~src:r2 ~dst:r1 ~bandwidth:(Units.Rate.bps bandwidth)
      ~delay:(ts delay) ~disc:(fast ())
  in
  ignore
    (T.add_duplex topo ~a:r2 ~b:dst
       ~bandwidth:(Units.Rate.bps (10.0 *. bandwidth))
       ~delay:(ts 0.001) ~disc_ab:(fast ()) ~disc_ba:(fast ()));
  T.compute_routes topo;
  { sim; topo; src; dst; bottleneck; reverse }

let watched_flow fx flow ~stall_after =
  let audit = Audit.create ~interval:(ts 0.05) fx.sim in
  Audit.add_stall_check audit ~subject:"flow" ~stall_after (fun () ->
      Flow.liveness flow);
  audit

(* --- zero-window persist (acceptance a) ---------------------------------- *)

(* The receiving application stalls before the transfer starts; the
   64-packet buffer fills, the window closes, and only persist probes
   keep the connection alive until the reader resumes at t = 3 s. The
   window update the resuming reader sends is deliberately LOST (ACK-path
   outage), so completion proves a probe re-elicited the advertisement.
   The stall watchdog must stay quiet throughout, and the RTO must never
   fire: probe pacing comes from the persist backoff alone. *)
let persist_rides_out_zero_window () =
  let fx = fixture () in
  ignore
    (Netsim.Fault.attach
       {
         Netsim.Fault.none with
         outages = Netsim.Fault.Scheduled [ (ts 2.9, ts 3.2) ];
       }
       fx.reverse);
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ())
      ~total_pkts:200
      ~rcv_buffer:(Units.Size.bytes (64 * Packet.mss))
      ()
  in
  let audit = watched_flow fx flow ~stall_after:(ts 1.0) in
  Flow.pause_reader flow;
  Thunk.at fx.sim (ts 3.0) (fun () -> Flow.resume_reader flow);
  Sim.run ~until:(ts 20.0) fx.sim;
  check_bool "transfer completed" true (Flow.completed flow);
  check_bool "entered a zero-window episode" true
    (Flow.zero_window_episodes flow >= 1);
  check_bool "sent persist probes" true (Flow.persist_probes flow >= 2);
  check_int "no RTO fired while the window was closed" 0 (Flow.timeouts flow);
  check_int "stall watchdog stayed quiet" 0 (Audit.violation_count audit)

(* Same scenario with persist disabled: the textbook deadlock. The flow
   never completes and the audit stall watchdog is the component that
   notices. *)
let no_persist_deadlocks_and_watchdog_fires () =
  let fx = fixture () in
  (* RFC 6429's deadlock needs the reopening window update to be LOST:
     an outage on the ACK path swallows the update the resuming reader
     sends at t = 3. With persist probing the sender would re-elicit the
     advertisement afterwards; without it the connection is dead. *)
  ignore
    (Netsim.Fault.attach
       {
         Netsim.Fault.none with
         outages = Netsim.Fault.Scheduled [ (ts 2.9, ts 3.2) ];
       }
       fx.reverse);
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ())
      ~total_pkts:200
      ~rcv_buffer:(Units.Size.bytes (64 * Packet.mss))
      ~persist:false ()
  in
  let audit = watched_flow fx flow ~stall_after:(ts 1.0) in
  Flow.pause_reader flow;
  Thunk.at fx.sim (ts 3.0) (fun () -> Flow.resume_reader flow);
  Sim.run ~until:(ts 20.0) fx.sim;
  check_bool "transfer deadlocked" false (Flow.completed flow);
  check_int "no probes without persist" 0 (Flow.persist_probes flow);
  check_bool "stall watchdog flagged the deadlock" true
    (Audit.violation_count audit > 0)

(* Separate-timer regression (PR satellite): persist probing must not
   touch the RTO state. The RTO value observed after several probe
   backoffs equals the value when the window closed — probes are not
   retransmissions and must never compound RTO backoff. *)
let persist_does_not_inflate_rto () =
  let fx = fixture () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ())
      ~total_pkts:500
      ~rcv_buffer:(Units.Size.bytes (64 * Packet.mss))
      ()
  in
  Flow.pause_reader flow;
  let rto_at_close = ref 0.0 in
  Thunk.at fx.sim (ts 1.0) (fun () ->
      check_bool "in persist by t=1" true (Flow.in_persist flow);
      rto_at_close := Units.Time.to_s (Flow.rto_value flow));
  Sim.run ~until:(ts 15.0) fx.sim;
  check_bool "several probes went out" true (Flow.persist_probes flow >= 3);
  check_int "zero retransmissions during persist" 0
    (Flow.retransmissions flow);
  Alcotest.(check (float 1e-9))
    "RTO untouched by probe backoff" !rto_at_close
    (Units.Time.to_s (Flow.rto_value flow))

(* --- RFC 5961 RST validation (acceptance b) ------------------------------ *)

let inject_rst fx flow ~at ~victim ~seq_of =
  Thunk.at fx.sim (ts at) (fun () ->
      let a = T.arena fx.topo in
      let pkt =
        Packet.rst a ~flow:(Flow.id flow) ~src:(-1) ~dst:(Node.id victim)
          ~seq:(seq_of ()) ~now:(Sim.now fx.sim) ()
      in
      Node.receive victim pkt)

let rst_validation_discriminates () =
  let fx = fixture () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ()) ()
  in
  (* Blind guess far outside the data in flight: dropped. *)
  inject_rst fx flow ~at:0.5 ~victim:fx.src ~seq_of:(fun () ->
      Flow.snd_next flow + 1_000_000);
  (* In-window but inexact: challenge ACK, connection survives. *)
  inject_rst fx flow ~at:0.7 ~victim:fx.src ~seq_of:(fun () ->
      Flow.snd_una flow + 1);
  Thunk.at fx.sim (ts 0.9) (fun () ->
      check_bool "survived blind and in-window RSTs" false (Flow.aborted flow));
  (* Exact sequence (what the real peer would send): abort. *)
  inject_rst fx flow ~at:1.0 ~victim:fx.src ~seq_of:(fun () ->
      Flow.snd_una flow);
  Sim.run ~until:(ts 2.0) fx.sim;
  check_bool "exact RST aborted the connection" true (Flow.aborted flow);
  check_int "three RSTs seen" 3 (Flow.rsts_received flow);
  check_int "blind RST ignored" 1 (Flow.rsts_ignored flow);
  check_int "in-window RST challenged" 1 (Flow.challenge_acks flow);
  check_int "exactly one RST accepted" 1 (Flow.rsts_accepted flow)

(* Without RFC 5961, the same blind out-of-window forgery kills the
   connection instantly — the failure mode the validation removes. *)
let without_validation_blind_rst_kills () =
  let fx = fixture () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ())
      ~rst_validation:false ()
  in
  inject_rst fx flow ~at:0.5 ~victim:fx.src ~seq_of:(fun () ->
      Flow.snd_next flow + 1_000_000);
  Sim.run ~until:(ts 1.0) fx.sim;
  check_bool "unvalidated stack died to a blind RST" true (Flow.aborted flow)

(* Active teardown: Flow.abort resets the peer with an exact sequence. *)
let active_abort_tears_down () =
  let fx = fixture () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ()) ()
  in
  Thunk.at fx.sim (ts 0.5) (fun () -> Flow.abort flow);
  Sim.run ~until:(ts 1.0) fx.sim;
  check_bool "aborted" true (Flow.aborted flow);
  check_bool "no longer live" true (Flow.liveness flow = None)

(* --- corrupted-segment validity gate (PR satellite) ----------------------- *)

let corrupted_segments_hit_the_gate () =
  let fx = fixture () in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ()) ()
  in
  (* A corrupted ACK claiming a huge cumulative ack, and a corrupted RST:
     both must be discarded unread — no sequence advance, no abort. *)
  Thunk.at fx.sim (ts 0.5) (fun () ->
      let una = Flow.snd_una flow in
      let a = T.arena fx.topo in
      let forged_ack =
        Packet.ack a ~flow:(Flow.id flow) ~src:(-1) ~dst:(Node.id fx.src)
          ~ack:1_000_000 ~sack:[] ~ecn_echo:false ~ts_echo:Float.nan
          ~window:65535 ~now:(Sim.now fx.sim) ()
      in
      Packet.set_corrupted a forged_ack true;
      Node.receive fx.src forged_ack;
      let forged_rst =
        Packet.rst a ~flow:(Flow.id flow) ~src:(-1) ~dst:(Node.id fx.src)
          ~seq:una ~now:(Sim.now fx.sim) ()
      in
      Packet.set_corrupted a forged_rst true;
      Node.receive fx.src forged_rst;
      check_int "both rejected at the gate" 2 (Flow.corrupt_rejected flow);
      check_bool "corrupted exact RST did not abort" false (Flow.aborted flow);
      check_bool "corrupted ack not applied" true (Flow.snd_una flow < 1_000_000));
  Sim.run ~until:(ts 1.0) fx.sim;
  check_bool "flow unharmed" false (Flow.aborted flow);
  check_int "no real RSTs recorded" 0 (Flow.rsts_received flow)

(* The Fault layer delivers corrupted packets (marked) instead of
   silently dropping them; the endpoint gate must account for every one. *)
let fault_corruption_is_delivered_and_rejected () =
  let fx = fixture () in
  let fault =
    Netsim.Fault.attach
      { Netsim.Fault.none with corrupt_prob = Units.Prob.v 0.05 }
      fx.bottleneck
  in
  let flow =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ())
      ~total_pkts:300 ()
  in
  Sim.run ~until:(ts 30.0) fx.sim;
  let stats = Netsim.Fault.stats fault in
  check_bool "transfer still completed" true (Flow.completed flow);
  check_bool "some segments were corrupted" true
    (stats.Netsim.Fault.corrupted > 0);
  check_int "every corrupted segment hit the validity gate"
    stats.Netsim.Fault.corrupted
    (Flow.corrupt_rejected flow)

(* --- window scaling (acceptance c) ---------------------------------------- *)

(* High-BDP path: 200 Mbps x 100 ms RTT ~ 2400 packets in flight. With
   negotiated scaling the elephant must exceed the unscaled 65-packet
   (64 KB) ceiling; a peer that offered shift 0 must never cross it. *)
let window_scaling_lifts_the_64k_cap () =
  let fx = fixture ~bandwidth:200e6 ~delay:0.05 () in
  let scaled =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ()) ()
  in
  Sim.run ~until:(ts 5.0) fx.sim;
  check_bool "negotiated a nonzero shift" true (Flow.wscale scaled > 0);
  check_bool
    (Printf.sprintf "scaled flow beat the 64 KB cap (max in flight %d pkts)"
       (Flow.max_outstanding_pkts scaled))
    true
    (Flow.max_outstanding_pkts scaled > 65)

let wscale_zero_keeps_the_64k_cap () =
  let fx = fixture ~bandwidth:200e6 ~delay:0.05 () in
  let capped =
    Flow.create fx.topo ~src:fx.src ~dst:fx.dst ~cc:(Cc.newreno ())
      ~wscale:0 ()
  in
  Sim.run ~until:(ts 5.0) fx.sim;
  check_int "shift 0 negotiated" 0 (Flow.wscale capped);
  check_bool "advertisement clamped to the 16-bit field" true
    (Units.Size.to_bytes (Flow.advertised_bytes capped) <= 65535);
  check_bool
    (Printf.sprintf "capped flow stayed under 65 pkts (max %d)"
       (Flow.max_outstanding_pkts capped))
    true
    (Flow.max_outstanding_pkts capped <= 65)

(* --- window arithmetic properties (QCheck) -------------------------------- *)

let qcheck_encode_decode_bounds =
  QCheck.Test.make ~name:"scaled advertisement round-trip bounds" ~count:1000
    QCheck.(pair (int_range 0 14) (int_bound 2_000_000_000))
    (fun (shift, size) ->
      let scale = Tcp_window.Scale.of_int shift in
      let adv =
        Tcp_window.Adv.encode ~scale (Units.Size.bytes size)
      in
      let decoded =
        Units.Size.to_bytes (Tcp_window.Adv.decode ~scale adv)
      in
      let ceiling = 0xFFFF lsl shift in
      (* never over-advertise *)
      decoded <= size
      (* rounding error strictly below one scale unit, unless clamped *)
      && (decoded = ceiling || size - decoded < 1 lsl shift)
      (* field always representable *)
      && Tcp_window.Adv.to_field adv <= 0xFFFF)

let qcheck_encode_monotone =
  QCheck.Test.make ~name:"scaled advertisement encoding is monotone"
    ~count:500
    QCheck.(
      triple (int_range 0 14) (int_bound 2_000_000_000)
        (int_bound 2_000_000_000))
    (fun (shift, a, b) ->
      let scale = Tcp_window.Scale.of_int shift in
      let enc x =
        Tcp_window.Adv.to_field
          (Tcp_window.Adv.encode ~scale (Units.Size.bytes x))
      in
      if a <= b then enc a <= enc b else enc b <= enc a)

let qcheck_occupancy_conserved =
  QCheck.Test.make ~name:"occupy/release conserve buffer capacity"
    ~count:500
    QCheck.(pair (int_range 1 1_000_000) (small_list (int_bound 100_000)))
    (fun (cap, chunks) ->
      let w = Tcp_window.create ~capacity:(Units.Size.bytes cap) () in
      List.iter
        (fun c -> Tcp_window.occupy w (Units.Size.bytes c))
        chunks;
      let avail = Units.Size.to_bytes (Tcp_window.available w) in
      (* occupancy clamps at capacity, never negative available *)
      avail >= 0 && avail <= cap
      &&
      (List.iter
         (fun c -> Tcp_window.release w (Units.Size.bytes c))
         chunks;
       (* releasing everything restores the full window *)
       Units.Size.to_bytes (Tcp_window.available w) = cap))

let qcheck_scale_negotiation =
  QCheck.Test.make ~name:"negotiated scale is min(offered, required)"
    ~count:200
    QCheck.(pair (int_range 0 14) (int_range 0 14))
    (fun (a, b) ->
      let n =
        Tcp_window.Scale.negotiate
          ~offered:(Tcp_window.Scale.of_int a)
          ~required:(Tcp_window.Scale.of_int b)
      in
      Tcp_window.Scale.to_int n = min a b)

(* --- adversarial family determinism (acceptance d) ------------------------ *)

(* The adversarial tables must be byte-identical whether cells run
   sequentially, on a 4-domain pool, or replayed out of a --resume
   store populated by a differently-parallel run. *)
let adversarial_family_deterministic () =
  let open Experiments in
  let render ctx =
    String.concat "\n"
      (List.map Output.to_csv (Adversarial.all ~ctx Scale.Smoke))
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pert-adv-store-%d" (Unix.getpid ()))
  in
  let sequential = render (Runner.ctx ~jobs:1 ()) in
  let parallel_stored =
    render (Runner.ctx ~jobs:4 ~store:(Store.open_ ~dir) ())
  in
  let resumed = render (Runner.ctx ~jobs:2 ~store:(Store.open_ ~dir) ()) in
  Alcotest.(check string) "jobs=1 vs jobs=4 byte-identical" sequential
    parallel_stored;
  Alcotest.(check string) "resumed from store byte-identical" sequential
    resumed

let suite =
  [
    ("persist rides out a zero window", `Quick, persist_rides_out_zero_window);
    ( "without persist the zero window deadlocks and the watchdog fires",
      `Quick,
      no_persist_deadlocks_and_watchdog_fires );
    ("persist probing never inflates the RTO", `Quick,
      persist_does_not_inflate_rto);
    ("RFC 5961: exact resets, in-window challenges, blind ignored", `Quick,
      rst_validation_discriminates);
    ( "without RFC 5961 a blind RST kills the connection",
      `Quick,
      without_validation_blind_rst_kills );
    ("active abort tears the connection down", `Quick, active_abort_tears_down);
    ("corrupted segments die at the validity gate", `Quick,
      corrupted_segments_hit_the_gate);
    ( "fault-layer corruption is delivered marked and fully rejected",
      `Quick,
      fault_corruption_is_delivered_and_rejected );
    ("window scaling lifts the 64 KB cap", `Quick,
      window_scaling_lifts_the_64k_cap);
    ("wscale 0 keeps the 64 KB cap", `Quick, wscale_zero_keeps_the_64k_cap);
    ( "adversarial family is byte-identical across job counts and resume",
      `Slow,
      adversarial_family_deterministic );
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_encode_decode_bounds;
        qcheck_encode_monotone;
        qcheck_occupancy_conserved;
        qcheck_scale_negotiation;
      ]
