module Sim = Sim_engine.Sim
module Rng = Sim_engine.Rng

type t =
  | Pert
  | Pert_tuned of {
      curve : Pert_core.Response_curve.t;
      alpha : float;
      decrease_factor : float;
      limit_per_rtt : bool;
    }
  | Pert_ecn
  | Sack_droptail
  | Sack_red_ecn
  | Vegas
  | Pert_pi of { target_delay : Units.Time.t }
  | Sack_pi_ecn of { target_delay : Units.Time.t }
  | Pert_rem
  | Pert_avq
  | Sack_rem_ecn
  | Sack_avq_ecn

let name = function
  | Pert -> "pert"
  | Pert_ecn -> "pert-ecn"
  | Pert_tuned _ -> "pert-tuned"
  | Sack_droptail -> "sack-droptail"
  | Sack_red_ecn -> "sack-red-ecn"
  | Vegas -> "vegas"
  | Pert_pi _ -> "pert-pi"
  | Sack_pi_ecn _ -> "sack-pi-ecn"
  | Pert_rem -> "pert-rem"
  | Pert_avq -> "pert-avq"
  | Sack_rem_ecn -> "sack-rem-ecn"
  | Sack_avq_ecn -> "sack-avq-ecn"

let all_fig4_schemes = [ Pert; Sack_droptail; Sack_red_ecn; Vegas ]

(* Every front end's name table: canonical names first, then the short
   aliases (router-AQM names stand for ECN SACK over that queue; the
   scenario language's [newreno]/[droptail] for plain SACK). The PI
   schemes run at a 3 ms target delay. *)
let named =
  let pi_target = Units.Time.s 0.003 in
  List.map
    (fun s -> (name s, s))
    [
      Pert;
      Pert_ecn;
      Sack_droptail;
      Sack_red_ecn;
      Vegas;
      Pert_pi { target_delay = pi_target };
      Sack_pi_ecn { target_delay = pi_target };
      Pert_rem;
      Pert_avq;
      Sack_rem_ecn;
      Sack_avq_ecn;
    ]
  @ [
      ("sack", Sack_droptail);
      ("newreno", Sack_droptail);
      ("droptail", Sack_droptail);
      ("red", Sack_red_ecn);
      ("pi", Sack_pi_ecn { target_delay = pi_target });
      ("rem", Sack_rem_ecn);
      ("avq", Sack_avq_ecn);
    ]

let names = List.map fst named

let of_name s =
  match List.assoc_opt s named with
  | Some t -> Ok t
  | None ->
      Error
        (Printf.sprintf "unknown scheme %S (expected one of: %s)" s
           (String.concat ", " names))

let uses_ecn = function
  | Pert_ecn | Sack_red_ecn | Sack_pi_ecn _ | Sack_rem_ecn | Sack_avq_ecn ->
      true
  | Pert | Pert_tuned _ | Sack_droptail | Vegas | Pert_pi _ | Pert_rem
  | Pert_avq ->
      false

type ctx = {
  sim : Sim_engine.Sim.t;
  capacity_pps : float;
  limit_pkts : int;
  rtt : float;
  nflows : int;
}

let router_pi_params ctx ~target_delay =
  let gains =
    Fluid.Stability.router_pi_gains ~c:ctx.capacity_pps
      ~n_min:(float_of_int (max 1 ctx.nflows))
      ~r_plus:ctx.rtt ~r_star:ctx.rtt
  in
  let sample_interval = ctx.rtt /. 10.0 in
  let d =
    Pert_core.Pert_pi.gains_of_pi ~k:gains.Fluid.Stability.k
      ~m:gains.Fluid.Stability.m ~delta:sample_interval
  in
  {
    Netsim.Pi_queue.a = d.Pert_core.Pert_pi.gamma;
    b = d.Pert_core.Pert_pi.beta;
    q_ref = Units.Time.to_s target_delay *. ctx.capacity_pps;
    sample_interval = Units.Time.s sample_interval;
    ecn = true;
  }

let bottleneck_disc t ctx =
  match t with
  | Pert | Pert_tuned _ | Vegas | Sack_droptail | Pert_pi _ | Pert_rem
  | Pert_avq ->
      Netsim.Droptail.create ~limit_pkts:ctx.limit_pkts
  | Sack_rem_ecn ->
      Netsim.Rem.disc
        (Netsim.Rem.create
           ~rng:(Rng.split (Sim.rng ctx.sim))
           ~params:(Netsim.Rem.default_params ~capacity_pps:ctx.capacity_pps)
           ~capacity_pps:ctx.capacity_pps ~limit_pkts:ctx.limit_pkts)
  | Sack_avq_ecn ->
      Netsim.Avq.disc
        (Netsim.Avq.create
           ~params:(Netsim.Avq.default_params ())
           ~capacity_pps:ctx.capacity_pps ~limit_pkts:ctx.limit_pkts)
  | Pert_ecn | Sack_red_ecn ->
      let params =
        Netsim.Red.auto_params ~capacity_pps:ctx.capacity_pps
          ~limit_pkts:ctx.limit_pkts ()
      in
      Netsim.Red.disc
        (Netsim.Red.create
           ~rng:(Rng.split (Sim.rng ctx.sim))
           ~params ~capacity_pps:ctx.capacity_pps ~limit_pkts:ctx.limit_pkts)
  | Sack_pi_ecn { target_delay } ->
      Netsim.Pi_queue.disc
        (Netsim.Pi_queue.create
           ~rng:(Rng.split (Sim.rng ctx.sim))
           ~params:(router_pi_params ctx ~target_delay)
           ~limit_pkts:ctx.limit_pkts)

let cc_factory t ctx () =
  match t with
  | Sack_droptail | Sack_red_ecn | Sack_pi_ecn _ | Sack_rem_ecn | Sack_avq_ecn
    ->
      Tcpstack.Cc.newreno ()
  | Vegas -> Tcpstack.Vegas.create ()
  | Pert | Pert_ecn ->
      Tcpstack.Pert_cc.create ~rng:(Rng.split (Sim.rng ctx.sim)) ()
  | Pert_rem -> Tcpstack.Pert_rem_cc.create ~rng:(Rng.split (Sim.rng ctx.sim)) ()
  | Pert_avq -> Tcpstack.Pert_avq_cc.create ~rng:(Rng.split (Sim.rng ctx.sim)) ()
  | Pert_tuned { curve; alpha; decrease_factor; limit_per_rtt } ->
      Tcpstack.Pert_cc.create
        ~rng:(Rng.split (Sim.rng ctx.sim))
        ~curve ~alpha ~decrease_factor ~limit_per_rtt ()
  | Pert_pi { target_delay } ->
      let gains =
        Fluid.Stability.pert_pi_gains ~c:ctx.capacity_pps
          ~n_min:(float_of_int (max 1 ctx.nflows))
          ~r_plus:ctx.rtt ~r_star:ctx.rtt
      in
      let sample_interval = ctx.rtt /. 10.0 in
      let d =
        Pert_core.Pert_pi.gains_of_pi ~k:gains.Fluid.Stability.k
          ~m:gains.Fluid.Stability.m ~delta:sample_interval
      in
      Tcpstack.Pert_pi_cc.create
        ~rng:(Rng.split (Sim.rng ctx.sim))
        ~gains:d ~target_delay
        ~sample_interval:(Units.Time.s sample_interval) ()

let rehydrate_disc (_ : Netsim.Queue_disc.t) = ()
let rehydrate_cc (_ : Tcpstack.Cc.t) = ()
