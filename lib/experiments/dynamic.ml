module Sim = Sim_engine.Sim
module Flow = Tcpstack.Flow

type config = {
  scheme : Schemes.t;
  bandwidth : float;
  rtt : float;
  cohort_size : int;
  n_cohorts : int;
  epoch : float;
  bin : float;
  seed : int;
}

let default scale scheme =
  {
    scheme;
    bandwidth = Scale.pick scale ~quick:10e6 ~default:40e6 ~full:100e6;
    rtt = 0.060;
    cohort_size = Scale.pick scale ~quick:4 ~default:8 ~full:25;
    n_cohorts = 4;
    epoch = Scale.pick scale ~quick:10.0 ~default:30.0 ~full:100.0;
    bin = Scale.pick scale ~quick:2.0 ~default:5.0 ~full:10.0;
    seed = 42;
  }

(* The config record is plain data, so its Marshal bytes are a stable
   fingerprint for store keys (same convention as [Dumbbell.cell_key]). *)
let scheme_key ~experiment ?point config =
  Store.key ~experiment
    ~scheme:(Schemes.name config.scheme)
    ~seed:config.seed ?point
    ~extra:(Digest.to_hex (Digest.string (Marshal.to_string config [])))
    ()

(* The cohort staircase: the shared payload of its join, leave and bin
   events. Join and leave carry the cohort index in their int slot. *)
type staircase = {
  built : Dumbbell.built;
  ecn : bool;
  flows : Flow.t array array;  (* per cohort; empty until it joins *)
  endpoints : (Netsim.Node.t * Netsim.Node.t) array array;
      (* hosts of cohorts 1..n-1 (cohort 0 is [built]'s own flows) *)
  period : float;  (* s, bin width *)
  last_acked : int array;  (* per cohort, at the last bin edge *)
  series : float array array;  (* per cohort, per bin: bit/s *)
  mutable next_bin : int;
}

let join_ev =
  Sim_engine.Event.define2 ~name:"dynamic.join" (fun s k ->
      s.flows.(k) <-
        Array.map
          (fun (src, dst) ->
            Flow.create s.built.Dumbbell.topo ~src ~dst
              ~cc:(s.built.Dumbbell.cc_factory ())
              ~ecn:s.ecn ())
          s.endpoints.(k - 1))

let leave_ev =
  Sim_engine.Event.define2 ~name:"dynamic.leave" (fun s k ->
      Array.iter Flow.stop s.flows.(k))

(* Binned per-cohort throughput via acked-packet deltas: a periodic tick
   that samples while bins remain and reschedules until the run stops. *)
let bin_ev =
  Sim_engine.Event.define_rec ~name:"dynamic.bin" (fun self s ->
      if s.next_bin < Array.length s.series.(0) then begin
        Array.iteri
          (fun k flows ->
            let acked =
              Array.fold_left (fun a f -> a + Flow.acked_pkts f) 0 flows
            in
            let delta = acked - s.last_acked.(k) in
            s.last_acked.(k) <- acked;
            s.series.(k).(s.next_bin) <-
              float_of_int (delta * 8 * Netsim.Packet.mss) /. s.period)
          s.flows;
        s.next_bin <- s.next_bin + 1
      end;
      let sim = Netsim.Topology.sim s.built.Dumbbell.topo in
      if not (Sim.stopped sim) then
        Sim.after_ev sim (Units.Time.s s.period) (self s))

(* A fresh host on its own fast DropTail access link to [router]: the
   endpoints of late cohorts and of the CBR stream. *)
let attach_host (built : Dumbbell.built) config router =
  let host = Netsim.Topology.add_node built.topo in
  let disc () = Netsim.Droptail.create ~limit_pkts:10_000 in
  ignore
    (Netsim.Topology.add_duplex built.topo ~a:host ~b:router
       ~bandwidth:(Units.Rate.bps (10.0 *. config.bandwidth))
       ~delay:(Units.Time.s (config.rtt /. 6.0))
       ~disc_ab:(disc ()) ~disc_ba:(disc ()));
  host

let run ?max_events ?max_wall config =
  (* Total timeline: cohorts join at 0, e, 2e, ... then leave in arrival
     order at n*e, (n+1)*e, ...; simulation ends when one cohort is left
     for a final epoch, mirroring the paper's 0..700 s staircase. *)
  let dumbbell_cfg =
    Dumbbell.uniform_flows
      {
        Dumbbell.default with
        scheme = config.scheme;
        bandwidth = config.bandwidth;
        rtt = config.rtt;
        reverse_flows = 0;
        web_sessions = 0;
        duration = 1.0 (* unused: we drive the clock ourselves *);
        warmup = 0.0;
        start_window = (0.0, 0.0);
        seed = config.seed;
      }
      ~n:config.cohort_size
  in
  let built = Dumbbell.build dumbbell_cfg in
  let sim = Netsim.Topology.sim built.Dumbbell.topo in
  Dumbbell.arm_budget sim ?max_events ?max_wall ();
  let total_epochs = (2 * config.n_cohorts) - 1 in
  let horizon = float_of_int total_epochs *. config.epoch in
  let nbins = Units.Round.ceil (horizon /. config.bin) in
  let times = Array.init nbins (fun i -> float_of_int (i + 1) *. config.bin) in
  let series = Array.make_matrix config.n_cohorts nbins 0.0 in
  (* Cohort 0 is the flows Dumbbell.build created; later cohorts attach
     fresh hosts at join time (hosts are created up front so routes exist). *)
  let flows = Array.make config.n_cohorts [||] in
  flows.(0) <- Array.of_list built.Dumbbell.forward_flows;
  let r1, r2 = built.Dumbbell.routers in
  let endpoints =
    Array.init (config.n_cohorts - 1) (fun _ ->
        Array.init config.cohort_size (fun _ ->
            (attach_host built config r1, attach_host built config r2)))
  in
  Netsim.Topology.compute_routes built.Dumbbell.topo;
  let s =
    {
      built;
      ecn = Schemes.uses_ecn config.scheme;
      flows;
      endpoints;
      period = config.bin;
      last_acked = Array.make config.n_cohorts 0;
      series;
      next_bin = 0;
    }
  in
  for k = 1 to config.n_cohorts - 1 do
    Sim.at_ev sim (Units.Time.s (float_of_int k *. config.epoch)) (join_ev s k)
  done;
  (* Cohorts leave in arrival order. *)
  for k = 0 to config.n_cohorts - 2 do
    Sim.at_ev sim
      (Units.Time.s (float_of_int (config.n_cohorts + k) *. config.epoch))
      (leave_ev s k)
  done;
  Sim.at_ev sim (Units.Time.s config.bin) (bin_ev s);
  Sim.run ~until:(Units.Time.s horizon) sim;
  (times, series)

let fig12 ?(ctx = Runner.default) scale =
  let n_cohorts = 4 in
  (* One staircase scenario per scheme, each on its own simulator. *)
  let cells =
    Runner.map ctx
      ~key:(fun scheme -> scheme_key ~experiment:"fig12" (default scale scheme))
      (* [run] installs no checkpoint tick, so these cells never write a
         live checkpoint. *)
      (fun ~ckpt:_ scheme ->
        run ?max_events:ctx.Runner.max_events ?max_wall:ctx.Runner.deadline
          (default scale scheme))
      Schemes.all_fig4_schemes
  in
  let rows =
    List.concat
      (List.map2
         (fun scheme cell ->
           match cell with
           | Ok (times, series) ->
               Array.to_list
                 (Array.mapi
                    (fun i t ->
                      Schemes.name scheme
                      :: Output.cell_f ~digits:1 t
                      :: Array.to_list
                           (Array.map
                              (fun cohort ->
                                Output.cell_f ~digits:2 (cohort.(i) /. 1e6))
                              series))
                    times)
           | Error f ->
               [
                 Schemes.name scheme
                 :: Runner.failure_cells ~width:(1 + n_cohorts) f;
               ])
         Schemes.all_fig4_schemes cells)
  in
  {
    Output.title =
      "Fig 12: response to flow arrivals/departures (per-cohort Mbps)";
    header =
      "scheme" :: "t(s)"
      :: List.init n_cohorts (fun k -> Printf.sprintf "cohort%d" (k + 1));
    rows;
  }

(* The same binning for the TCP aggregate and the CBR source. *)
type cbr_bins = {
  xb_sim : Sim.t;
  xb_bin : float;  (* s *)
  xb_flows : Flow.t array;
  xb_cbr : Traffic.Cbr.t;
  xb_tcp_series : float array;
  xb_cbr_series : float array;
  mutable xb_last_tcp : int;
  mutable xb_last_cbr : int;
  mutable xb_idx : int;
}

let cbr_bin_ev =
  Sim_engine.Event.define_rec ~name:"dynamic-cbr.bin" (fun self b ->
      if b.xb_idx < Array.length b.xb_tcp_series then begin
        let tcp =
          Array.fold_left (fun a f -> a + Flow.acked_pkts f) 0 b.xb_flows
        in
        let got = Traffic.Cbr.received b.xb_cbr in
        b.xb_tcp_series.(b.xb_idx) <-
          float_of_int ((tcp - b.xb_last_tcp) * 8 * Netsim.Packet.mss)
          /. b.xb_bin;
        b.xb_cbr_series.(b.xb_idx) <-
          float_of_int ((got - b.xb_last_cbr) * 8 * Netsim.Packet.data_size)
          /. b.xb_bin;
        b.xb_last_tcp <- tcp;
        b.xb_last_cbr <- got;
        b.xb_idx <- b.xb_idx + 1
      end;
      if not (Sim.stopped b.xb_sim) then
        Sim.after_ev b.xb_sim (Units.Time.s b.xb_bin) (self b))

let run_cbr ?max_events ?max_wall config ~cbr_share =
  let dumbbell_cfg =
    Dumbbell.uniform_flows
      {
        Dumbbell.default with
        Dumbbell.scheme = config.scheme;
        bandwidth = config.bandwidth;
        rtt = config.rtt;
        duration = 1.0;
        warmup = 0.0;
        start_window = (0.0, 1.0);
        seed = config.seed;
      }
      ~n:config.cohort_size
  in
  let built = Dumbbell.build dumbbell_cfg in
  let sim = Netsim.Topology.sim built.Dumbbell.topo in
  Dumbbell.arm_budget sim ?max_events ?max_wall ();
  let horizon = 3.0 *. config.epoch in
  let nbins = Units.Round.ceil (horizon /. config.bin) in
  let times = Array.init nbins (fun i -> float_of_int (i + 1) *. config.bin) in
  let tcp_series = Array.make nbins 0.0 in
  let cbr_series = Array.make nbins 0.0 in
  let r1, r2 = built.Dumbbell.routers in
  (* CBR endpoints on their own access links. *)
  let cbr_src = attach_host built config r1
  and cbr_dst = attach_host built config r2 in
  Netsim.Topology.compute_routes built.Dumbbell.topo;
  let cbr =
    Traffic.Cbr.start built.Dumbbell.topo ~src:cbr_src ~dst:cbr_dst
      ~rate:(Units.Rate.bps (cbr_share *. config.bandwidth))
      ~start:(Units.Time.s config.epoch)
      ~stop:(Units.Time.s (2.0 *. config.epoch)) ()
  in
  Sim.at_ev sim (Units.Time.s config.bin)
    (cbr_bin_ev
       {
         xb_sim = sim;
         xb_bin = config.bin;
         xb_flows = Array.of_list built.Dumbbell.forward_flows;
         xb_cbr = cbr;
         xb_tcp_series = tcp_series;
         xb_cbr_series = cbr_series;
         xb_last_tcp = 0;
         xb_last_cbr = 0;
         xb_idx = 0;
       });
  Sim.run ~until:(Units.Time.s horizon) sim;
  (times, tcp_series, cbr_series)

let dynamic_cbr ?(ctx = Runner.default) scale =
  let cbr_share = 0.5 in
  let cells =
    Runner.map ctx
      ~key:(fun scheme ->
        scheme_key ~experiment:"dynamic-cbr"
          ~point:(Printf.sprintf "cbr%.2f" cbr_share)
          (default scale scheme))
      (fun ~ckpt:_ scheme ->
        run_cbr ?max_events:ctx.Runner.max_events
          ?max_wall:ctx.Runner.deadline (default scale scheme) ~cbr_share)
      Schemes.all_fig4_schemes
  in
  let rows =
    List.concat
      (List.map2
         (fun scheme cell ->
           match cell with
           | Ok (times, tcp, cbr) ->
               Array.to_list
                 (Array.mapi
                    (fun i t ->
                      [
                        Schemes.name scheme;
                        Output.cell_f ~digits:1 t;
                        Output.cell_f ~digits:2 (tcp.(i) /. 1e6);
                        Output.cell_f ~digits:2 (cbr.(i) /. 1e6);
                      ])
                    times)
           | Error f ->
               [ Schemes.name scheme :: Runner.failure_cells ~width:3 f ])
         Schemes.all_fig4_schemes cells)
  in
  {
    Output.title =
      "Section 4.7 companion: non-responsive CBR at 50% of the bottleneck, \
       on during the middle third";
    header = [ "scheme"; "t(s)"; "tcp(Mbps)"; "cbr(Mbps)" ];
    rows;
  }
