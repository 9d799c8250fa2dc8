module Sim = Sim_engine.Sim
module Rng = Sim_engine.Rng
module Flow = Tcpstack.Flow

type params = {
  think_mean : float;
  objects_per_page : float;
  size_shape : float;
  size_min_pkts : int;
  size_cap_pkts : int;
}

let default_params =
  {
    think_mean = 10.0;
    objects_per_page = 4.0;
    size_shape = 1.2;
    size_min_pkts = 2;
    size_cap_pkts = 200;
  }

type stats = {
  mutable objects_completed : int;
  mutable pkts_completed : int;
}

let object_size rng p =
  let raw =
    Rng.bounded_pareto rng ~shape:p.size_shape
      ~scale:(float_of_int p.size_min_pkts)
      ~cap:(float_of_int p.size_cap_pkts)
  in
  max p.size_min_pkts (Units.Round.trunc raw)

(* Everything a session's think timer needs, as plain data: the event
   payload. [rng] is the session's own stream; the other fields are
   shared by every session of one [start_sessions] call. *)
type session = {
  topo : Netsim.Topology.t;
  src_pool : Netsim.Node.t array;
  dst_pool : Netsim.Node.t array;
  cc_factory : unit -> Tcpstack.Cc.t;
  ecn : bool;
  params : params;
  until : float;
  stats : stats;
  rng : Rng.t;
}

(* The think timer is declared before the page/fetch chain that both
   schedules and handles it; the handler is installed right after. *)
let think_ev, set_think_ev = Sim_engine.Event.declare ~name:"web.think"

(* A session alternates think timers and pages: [page] fetches its
   objects sequentially ([fetch]), then thinks again. *)
let rec think s =
  (* Heavy-tailed OFF periods (bounded Pareto, mean ~ think_mean): the
     variability-of-load ingredient of the Feldmann model; long quiet
     spells let bottleneck queues drain. *)
  let shape = 1.2 in
  let scale = s.params.think_mean *. (shape -. 1.0) /. shape in
  let delay =
    Rng.bounded_pareto s.rng ~shape ~scale ~cap:(50.0 *. s.params.think_mean)
  in
  Sim.after_ev (Netsim.Topology.sim s.topo) (Units.Time.s delay)
    (think_ev s 0)

and page s =
  let objects = Rng.geometric s.rng (1.0 /. s.params.objects_per_page) in
  let src = s.src_pool.(Rng.int s.rng (Array.length s.src_pool)) in
  let dst = s.dst_pool.(Rng.int s.rng (Array.length s.dst_pool)) in
  fetch s src dst objects

and fetch s src dst remaining =
  if remaining <= 0 then think s
  else begin
    let size = object_size s.rng s.params in
    let on_complete _flow =
      s.stats.objects_completed <- s.stats.objects_completed + 1;
      s.stats.pkts_completed <- s.stats.pkts_completed + size;
      fetch s src dst (remaining - 1)
    in
    ignore
      (Flow.create s.topo ~src ~dst ~cc:(s.cc_factory ()) ~ecn:s.ecn
         ~total_pkts:size ~on_complete ())
  end

let () =
  set_think_ev (fun s _ ->
      if Sim.now (Netsim.Topology.sim s.topo) < s.until then page s)

let start_sessions topo ~n ~src_pool ~dst_pool ~cc_factory ?(ecn = false)
    ?(params = default_params) ?until () =
  if Array.length src_pool = 0 || Array.length dst_pool = 0 then
    invalid_arg "Web.start_sessions: empty node pool";
  let sim = Netsim.Topology.sim topo in
  let until =
    match until with Some u -> Units.Time.to_s u | None -> infinity
  in
  let stats = { objects_completed = 0; pkts_completed = 0 } in
  for _ = 1 to n do
    think
      {
        topo;
        src_pool;
        dst_pool;
        cc_factory;
        ecn;
        params;
        until;
        stats;
        rng = Rng.split (Sim.rng sim);
      }
  done;
  stats
