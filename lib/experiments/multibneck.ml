module Sim = Sim_engine.Sim
module Rng = Sim_engine.Rng
module Stats = Sim_engine.Stats
module T = Netsim.Topology
module Link = Netsim.Link
module Flow = Tcpstack.Flow
module Packet = Netsim.Packet

type config = {
  scheme : Schemes.t;
  n_routers : int;
  cloud_size : int;
  link_bandwidth : float;
  link_delay : float;
  duration : float;
  warmup : float;
  seed : int;
  scheduler : [ `Heap | `Wheel ];
}

let default scale scheme =
  {
    scheme;
    n_routers = 6;
    cloud_size = Scale.pick scale ~quick:4 ~default:8 ~full:20;
    link_bandwidth = Scale.pick scale ~quick:10e6 ~default:30e6 ~full:150e6;
    link_delay = 0.005;
    duration = Scale.pick scale ~quick:25.0 ~default:80.0 ~full:400.0;
    warmup = Scale.pick scale ~quick:10.0 ~default:25.0 ~full:100.0;
    seed = 42;
    scheduler = `Wheel;
  }

type link_report = {
  hop : string;
  avg_queue_norm : float;
  drop_rate : float;
  utilization : float;
  jain : float;
}

let run ?max_events ?max_wall config =
  let sim = Sim.create ~seed:config.seed ~scheduler:config.scheduler () in
  Dumbbell.arm_budget sim ?max_events ?max_wall ();
  let topo = T.create sim in
  let routers = Array.init config.n_routers (fun _ -> T.add_node topo) in
  let capacity_pps =
    config.link_bandwidth /. (8.0 *. float_of_int Packet.data_size)
  in
  (* Longest path RTT estimate: all hops both ways plus access links. *)
  let est_rtt =
    2.0
    *. ((float_of_int (config.n_routers - 1) *. config.link_delay) +. 0.010)
  in
  let limit_pkts =
    max
      (2 * config.cloud_size)
      (Dumbbell.bdp_pkts ~bandwidth:config.link_bandwidth ~rtt:est_rtt)
  in
  let ctx =
    {
      Schemes.sim;
      capacity_pps;
      limit_pkts;
      rtt = est_rtt;
      nflows = config.cloud_size;
    }
  in
  (* Inter-router links, both directions, AQM per scheme. *)
  let hop_links =
    Array.init
      (config.n_routers - 1)
      (fun i ->
        let fwd =
          T.add_link topo ~src:routers.(i) ~dst:routers.(i + 1)
            ~bandwidth:(Units.Rate.bps config.link_bandwidth)
            ~delay:(Units.Time.s config.link_delay)
            ~disc:(Schemes.bottleneck_disc config.scheme ctx)
        in
        let _bwd =
          T.add_link topo
            ~src:routers.(i + 1)
            ~dst:routers.(i)
            ~bandwidth:(Units.Rate.bps config.link_bandwidth)
            ~delay:(Units.Time.s config.link_delay)
            ~disc:(Schemes.bottleneck_disc config.scheme ctx)
        in
        fwd)
  in
  (* Clouds: [cloud_size] hosts per router on fast access links. *)
  let clouds =
    Array.map
      (fun router ->
        Array.init config.cloud_size (fun _ ->
            let host = T.add_node topo in
            let disc () = Netsim.Droptail.create ~limit_pkts:10_000 in
            ignore
              (T.add_duplex topo ~a:host ~b:router
                 ~bandwidth:(Units.Rate.bps (10.0 *. config.link_bandwidth))
                 ~delay:(Units.Time.s 0.005) ~disc_ab:(disc ())
                 ~disc_ba:(disc ()));
            host))
      routers
  in
  T.compute_routes topo;
  let cc_factory = Schemes.cc_factory config.scheme ctx in
  let ecn = Schemes.uses_ecn config.scheme in
  let rng = Rng.split (Sim.rng sim) in
  let mk_flow src dst =
    Flow.create topo ~src ~dst ~cc:(cc_factory ()) ~ecn
      ~start:(Units.Time.s (Rng.uniform rng 0.0 5.0)) ()
  in
  (* Hop flows: cloud i -> cloud i+1, pairwise. *)
  let hop_flows =
    Array.init
      (config.n_routers - 1)
      (fun i ->
        Array.init config.cloud_size (fun j ->
            mk_flow clouds.(i).(j) clouds.(i + 1).(j)))
  in
  (* Long-haul flows: cloud 1 -> last cloud. *)
  let long_flows =
    Array.init config.cloud_size (fun j ->
        mk_flow clouds.(0).(j) clouds.(config.n_routers - 1).(j))
  in
  Sim.run ~until:(Units.Time.s config.warmup) sim;
  Array.iter Link.reset_stats hop_links;
  Array.iter (Array.iter Flow.reset_stats) hop_flows;
  Array.iter Flow.reset_stats long_flows;
  Sim.run ~until:(Units.Time.s config.duration) sim;
  let now = Sim.now sim in
  let reports =
    Array.to_list
      (Array.mapi
         (fun i link ->
           let goodputs =
             Array.map
               (fun f -> Units.Rate.to_bps (Flow.goodput_bps f ~now))
               hop_flows.(i)
           in
           {
             hop = Printf.sprintf "R%d-R%d" (i + 1) (i + 2);
             avg_queue_norm =
               Units.Pkts.to_float (Link.avg_queue_pkts link)
               /. float_of_int limit_pkts;
             drop_rate = Link.drop_rate link;
             utilization = Link.utilization link;
             jain = Stats.jain_index goodputs;
           })
         hop_links)
  in
  let long_jain =
    Stats.jain_index
      (Array.map
         (fun f -> Units.Rate.to_bps (Flow.goodput_bps f ~now))
         long_flows)
  in
  (reports, long_jain)

let fig11 ?(ctx = Runner.default) scale =
  (* One six-router chain per scheme; each owns its simulator, so the
     four runs parallelise cleanly. The config record is plain data, so
     its Marshal bytes key the store cell. *)
  let mk_config scheme =
    { (default scale scheme) with scheduler = ctx.Runner.scheduler }
  in
  let cells =
    Runner.map ctx
      ~key:(fun scheme ->
        let config = mk_config scheme in
        Store.key ~experiment:"fig11"
          ~scheme:(Schemes.name config.scheme)
          ~seed:config.seed
          ~extra:
            (Digest.to_hex (Digest.string (Marshal.to_string config [])))
          ())
      (* The parking-lot scenario builds its own topology outside
         [Dumbbell.run_world]; it does not honour live checkpoints. *)
      (fun ~ckpt:_ scheme ->
        run ?max_events:ctx.Runner.max_events ?max_wall:ctx.Runner.deadline
          (mk_config scheme))
      Schemes.all_fig4_schemes
  in
  let rows =
    List.concat
      (List.map2
         (fun scheme cell ->
           match cell with
           | Ok (reports, long_jain) ->
               List.map
                 (fun r ->
                   [
                     Schemes.name scheme;
                     r.hop;
                     Output.cell_f r.avg_queue_norm;
                     Output.cell_e r.drop_rate;
                     Output.cell_f r.utilization;
                     Output.cell_f r.jain;
                     Output.cell_f long_jain;
                   ])
                 reports
           | Error f ->
               [ Schemes.name scheme :: Runner.failure_cells ~width:6 f ])
         Schemes.all_fig4_schemes cells)
  in
  {
    Output.title = "Fig 11: multiple bottlenecks (6-router chain)";
    header =
      [ "scheme"; "hop"; "Q(norm)"; "droprate"; "util"; "jain"; "jain-e2e" ];
    rows;
  }
