(** The single-bottleneck ("dumbbell") scenario used by Sections 2 and
    4.1–4.5: per-flow source and sink nodes hang off two routers joined by
    the bottleneck link; forward and reverse long-lived flows plus web
    sessions share it.

    Fast access links carry per-flow delay so flows can have heterogeneous
    RTTs; the bottleneck buffer defaults to the paper's rule (one BDP,
    floored at twice the number of flows). *)

(** End-host TCP hardening profile for every long-lived flow (plain
    data; part of the config digest). *)
type tcp_profile = {
  rst_validation : bool;  (** RFC 5961 RST handling (default true) *)
  persist : bool;  (** zero-window persist probing (default true) *)
  wscale : int option;
      (** peer's window-scale offer at SYN time; [None] negotiates what
          the buffer needs, [Some 0] caps the window at 64 KB *)
  rcv_buffer_pkts : int option;
      (** receive buffer in packets; [None] = effectively unbounded *)
}

val default_tcp : tcp_profile

type config = {
  scheme : Schemes.t;
  bandwidth : float;  (** bottleneck, bits/s *)
  rtt : float;  (** default two-way propagation delay, s *)
  flow_rtts : float list;
      (** RTT per forward long-lived flow; length = flow count *)
  reverse_flows : int;
  web_sessions : int;
  buffer_pkts : int option;  (** [None]: BDP rule *)
  duration : float;  (** total simulated seconds *)
  warmup : float;  (** stats collected on [\[warmup, duration\]] *)
  start_window : float * float;  (** random flow start times *)
  delay_signal : Tcpstack.Flow.delay_signal;
      (** [`Rtt] (default) or [`Owd] for the Section 7 one-way-delay
          variant of the long-lived flows *)
  fault : Netsim.Fault.spec option;
      (** impairments applied to the forward bottleneck link (default
          [None]; attaching a fault consumes extra rng splits, so faulty
          and fault-free runs are separate random universes) *)
  adversary : Netsim.Fault.adversary option;
      (** on-path attacker armed across both bottleneck directions
          (default [None]; like [fault], arming consumes an rng split) *)
  tcp : tcp_profile;  (** end-host hardening knobs (default {!default_tcp}) *)
  audit : bool;
      (** run the {!Sim_engine.Audit} invariant checks — per-link packet
          conservation, per-flow sanity, clock monotonicity, livelock
          watchdog — every 100 ms of simulated time (default [true];
          pure observation, does not perturb the simulation) *)
  seed : int;
  scheduler : [ `Heap | `Wheel ];
      (** event scheduler for the simulation (default [`Wheel]); results
          are byte-identical either way *)
}

val default : config
(** PERT scheme, 50 Mbps, 60 ms, 16 forward flows, no reverse flows, no
    web, BDP buffer, 60 s with 20 s warm-up, starts in [(0, 5)] s, no
    fault, auditing on. *)

val uniform_flows : config -> n:int -> config
(** Set [flow_rtts] to [n] copies of [config.rtt]. *)

val bdp_pkts : bandwidth:float -> rtt:float -> int
(** Bandwidth-delay product in data packets. *)

val arm_budget :
  Sim_engine.Sim.t -> ?max_events:int -> ?max_wall:Units.Time.t -> unit -> unit
(** [arm_budget sim ?max_events ?max_wall ()] arms
    {!Sim_engine.Sim.set_budget} when either bound is given and leaves
    [sim] unbudgeted when neither is: the one place every scenario runner
    turns its optional budget into a [set_budget] call. *)

type result = {
  avg_queue_pkts : Units.Pkts.t;
  avg_queue_norm : float;  (** normalised by the buffer size *)
  drop_rate : float;
  utilization : float;
  jain : float;  (** over forward long-lived flows *)
  per_flow_goodput : Units.Rate.t array;
      (** forward long-lived flows *)
  buffer_pkts : int;
  marks : int;
  early_responses : int;  (** summed over forward flows *)
  loss_events : int;  (** summed over forward flows *)
  audit_violations : int;
      (** total invariant violations observed (0 when auditing is off) *)
}

val run :
  ?ckpt:Runner.checkpoint ->
  ?max_events:int ->
  ?max_wall:Units.Time.t ->
  config ->
  result
(** Build, warm up, measure, and summarise. When either budget is set it
    is armed on the scenario's simulator ({!Sim_engine.Sim.set_budget}),
    so a pathological configuration raises
    {!Sim_engine.Sim.Budget_exceeded} instead of hanging.

    With [ckpt], the run periodically writes a {!Sim_engine.Sim.Snapshot}
    of its whole live state to [ckpt.snap_path] (atomic temp+rename; the
    pending next tick is saved too, so checkpointing continues after a
    restore), and — the crash-recovery path — when that file already
    exists and matches this binary, the run {e resumes from it} instead
    of rebuilding: remaining warmup and measurement phases complete as
    if never interrupted, byte-identically to an uninterrupted run. A
    snapshot from another binary is ignored and recomputed over.
    Budgets are part of the snapshot; [max_events]/[max_wall] are only
    armed on a fresh build. Every scenario [build] makes, web sessions
    included, can be checkpointed. *)

val cell_key : experiment:string -> string * config -> Store.key
(** Store identity of one [(point, config)] sweep cell. *)

val run_cells :
  ctx:Runner.ctx -> experiment:string -> (string * config) list ->
  result Runner.cell list
(** {!Runner.map} over labelled configs: store-checkpointed, supervised,
    budgeted per [ctx] — the building block of every dumbbell sweep. *)

(** Handles for custom experiments that need mid-run access. *)
type built = {
  topo : Netsim.Topology.t;
  bottleneck : Netsim.Link.t;  (** forward-direction bottleneck *)
  reverse_bneck : Netsim.Link.t;
  forward_flows : Tcpstack.Flow.t list;
  reverse : Tcpstack.Flow.t list;
  config : config;
  cc_factory : unit -> Tcpstack.Cc.t;
  routers : Netsim.Node.t * Netsim.Node.t;
  fault : Netsim.Fault.t option;  (** fault handle when [config.fault] set *)
  attack : Netsim.Fault.attack option;
      (** adversary handle when [config.adversary] set *)
  audit : Sim_engine.Audit.t option;  (** audit handle when enabled *)
}

val build : config -> built
(** Construct the scenario without running it (web sessions are started,
    long flows scheduled). *)

val run_world :
  ?ckpt:Runner.checkpoint ->
  ?max_events:int ->
  ?max_wall:Units.Time.t ->
  config ->
  built * result
(** {!run}, additionally returning the built (possibly restored)
    scenario — for suites ({!Faults}, {!Adversarial}) that summarise
    flow- or fault-level counters beyond {!type-result}. *)

val measure : built -> result
(** Collect the summary from a [built] whose simulation has been advanced
    past [config.warmup] (call {!reset} at warm-up first). *)

val reset : built -> unit
(** Zero the measurement windows of the bottleneck links and flows. *)
